#include "nn/conv2d.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "tensor/threadpool.h"

namespace cn::nn {

void pool_image(const float* img, const PrePool& p, int64_t C, int64_t OH,
                int64_t OW, float* out) {
  const int64_t win = p.window;
  const int64_t H = OH * win, W = OW * win;
  for (int64_t c = 0; c < C; ++c) {
    const float* chan = img + c * H * W;
    float* ochan = out + c * OH * OW;
    if (p.kind == PrePool::Kind::kAvg) {
      const float inv = 1.0f / static_cast<float>(win * win);
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float acc = 0.0f;
          for (int64_t kh = 0; kh < win; ++kh) {
            const float* row = chan + (oh * win + kh) * W + ow * win;
            for (int64_t kw = 0; kw < win; ++kw) acc += row[kw];
          }
          ochan[oh * OW + ow] = acc * inv;
        }
      }
    } else {
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float best = -std::numeric_limits<float>::infinity();
          for (int64_t kh = 0; kh < win; ++kh) {
            for (int64_t kw = 0; kw < win; ++kw) {
              const int64_t idx = (oh * win + kh) * W + (ow * win + kw);
              if (chan[idx] > best) best = chan[idx];
            }
          }
          ochan[oh * OW + ow] = best;
        }
      }
    }
  }
}

Conv2D::Conv2D(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
               int64_t pad, int64_t in_h, int64_t in_w, std::string label)
    : out_c_(out_c),
      w_(Shape{out_c, in_c * kernel * kernel}, label + ".w"),
      b_(Shape{out_c}, label + ".b") {
  geom_ = ConvGeom{in_c, in_h, in_w, kernel, kernel, stride, pad};
  label_ = std::move(label);
}

Tensor Conv2D::forward(const Tensor& x, bool train) {
  if (x.rank() != 4 || x.dim(1) != geom_.in_c || x.dim(2) != geom_.in_h ||
      x.dim(3) != geom_.in_w)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  if (train) x_cache_ = x;
  return forward_fused(x, /*pre_pool=*/nullptr, /*relu=*/false);
}

Tensor Conv2D::forward_relu(const Tensor& x) {
  return forward_fused(x, /*pre_pool=*/nullptr, /*relu=*/true);
}

Tensor Conv2D::forward_fused(const Tensor& x, const PrePool* pre_pool, bool relu,
                             const PrePool* post_pool) {
  const int64_t win = pre_pool ? pre_pool->window : 1;
  const int64_t N = x.dim(0);
  if (x.rank() != 4 || x.dim(1) != geom_.in_c || x.dim(2) != geom_.in_h * win ||
      x.dim(3) != geom_.in_w * win)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));

  const int64_t OH = geom_.out_h(), OW = geom_.out_w();
  const int64_t pwin = post_pool ? post_pool->window : 1;
  if (post_pool && (pwin <= 0 || OH % pwin != 0 || OW % pwin != 0))
    throw std::logic_error(label_ + ": post-pool window does not divide conv output");
  const int64_t POH = OH / pwin, POW = OW / pwin;
  const int64_t K2 = geom_.in_c * geom_.k_h * geom_.k_w;
  const int64_t img_pooled = geom_.in_c * geom_.in_h * geom_.in_w;
  const int64_t img_in = pre_pool ? img_pooled * win * win : img_pooled;
  const int64_t img_conv = out_c_ * OH * OW;
  const int64_t img_out = out_c_ * POH * POW;
  // live_weight() refreshes the effective weight so nominal-weight edits
  // between forwards (optimizer steps, tests) are always reflected.
  const float* pw = live_weight().data();
  const float* pb = b_.value.data();
  Tensor y({N, out_c_, POH, POW});

  parallel_for(0, N, [&](int64_t lo, int64_t hi) {
    std::vector<float> cols(static_cast<size_t>(K2 * OH * OW));
    std::vector<float> staged;
    if (pre_pool) staged.resize(static_cast<size_t>(img_pooled));
    std::vector<float> full;  // per-image conv output when a post-pool runs
    if (post_pool) full.resize(static_cast<size_t>(img_conv));
    for (int64_t n = lo; n < hi; ++n) {
      const float* img = x.data() + n * img_in;
      if (pre_pool) {
        pool_image(img, *pre_pool, geom_.in_c, geom_.in_h, geom_.in_w,
                   staged.data());
        img = staged.data();
      }
      im2col(img, geom_, cols.data());
      float* out = post_pool ? full.data() : y.data() + n * img_out;
      // out(out_c, OH*OW) = W(out_c, K2) * cols(K2, OH*OW)
      const int64_t M = out_c_, Kd = K2, Nd = OH * OW;
      for (int64_t i = 0; i < M; ++i) {
        float* orow = out + i * Nd;
        const float bi = pb[i];
        for (int64_t j = 0; j < Nd; ++j) orow[j] = bi;
        const float* wrow = pw + i * Kd;
        for (int64_t k = 0; k < Kd; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          const float* crow = cols.data() + k * Nd;
          for (int64_t j = 0; j < Nd; ++j) orow[j] += wv * crow[j];
        }
        if (relu)
          for (int64_t j = 0; j < Nd; ++j) orow[j] = std::max(orow[j], 0.0f);
      }
      if (post_pool)
        pool_image(full.data(), *post_pool, out_c_, POH, POW,
                   y.data() + n * img_out);
    }
  });
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  if (x_cache_.empty())
    throw std::logic_error(label_ + ": backward without cached forward");
  const int64_t N = x_cache_.dim(0);
  const int64_t OH = geom_.out_h(), OW = geom_.out_w();
  const int64_t K2 = geom_.in_c * geom_.k_h * geom_.k_w;
  const int64_t img_in = geom_.in_c * geom_.in_h * geom_.in_w;
  const int64_t img_out = out_c_ * OH * OW;
  const int64_t Nd = OH * OW;

  Tensor dx(x_cache_.shape());
  const Tensor& W = effective_weight();
  const float* pw = W.data();

  // Per-chunk gradient accumulators, reduced in chunk order. The batch is
  // split into one contiguous chunk per pool thread and each chunk owns its
  // slot, so the float summation order depends only on N and the pool size,
  // never on which thread picks up which chunk: repeated trainings are
  // bit-identical.
  const int64_t nchunks = std::max<int64_t>(
      1, std::min<int64_t>(ThreadPool::global().size(), N));
  const int64_t chunk = (N + nchunks - 1) / nchunks;
  std::vector<Tensor> dw_acc(static_cast<size_t>(nchunks), Tensor(w_.value.shape()));
  std::vector<Tensor> db_acc(static_cast<size_t>(nchunks), Tensor(b_.value.shape()));

  parallel_for(0, nchunks, [&](int64_t clo, int64_t chi) {
    std::vector<float> cols(static_cast<size_t>(K2 * Nd));
    std::vector<float> dcols(static_cast<size_t>(K2 * Nd));
    for (int64_t n = clo * chunk; n < std::min(N, chi * chunk); ++n) {
      float* dw = dw_acc[static_cast<size_t>(n / chunk)].data();
      float* db = db_acc[static_cast<size_t>(n / chunk)].data();
      im2col(x_cache_.data() + n * img_in, geom_, cols.data());
      const float* gout = grad_out.data() + n * img_out;
      // dW += gout(out_c, Nd) * cols^T(Nd, K2)
      for (int64_t i = 0; i < out_c_; ++i) {
        const float* grow = gout + i * Nd;
        float* dwrow = dw + i * K2;
        double bsum = 0.0;
        for (int64_t j = 0; j < Nd; ++j) bsum += grow[j];
        db[i] += static_cast<float>(bsum);
        for (int64_t k = 0; k < K2; ++k) {
          const float* crow = cols.data() + k * Nd;
          double acc = 0.0;
          for (int64_t j = 0; j < Nd; ++j) acc += static_cast<double>(grow[j]) * crow[j];
          dwrow[k] += static_cast<float>(acc);
        }
      }
      // dcols = W^T(K2, out_c) * gout(out_c, Nd)
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      for (int64_t i = 0; i < out_c_; ++i) {
        const float* grow = gout + i * Nd;
        const float* wrow = pw + i * K2;
        for (int64_t k = 0; k < K2; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          float* drow = dcols.data() + k * Nd;
          for (int64_t j = 0; j < Nd; ++j) drow[j] += wv * grow[j];
        }
      }
      col2im(dcols.data(), geom_, dx.data() + n * img_in);
    }
  });

  for (size_t t = 0; t < dw_acc.size(); ++t) {
    // dw_acc holds dL/dW_eff; with variation active W_eff = W ∘ f,
    // so chain dL/dW = dL/dW_eff ∘ f.
    if (var_active_) mul_inplace(dw_acc[t], factors_);
    add_inplace(w_.grad, dw_acc[t]);
    add_inplace(b_.grad, db_acc[t]);
  }
  return dx;
}

void Conv2D::set_weight_factors(const Tensor& f) {
  if (!f.same_shape(w_.value))
    throw std::invalid_argument(label_ + ": factor shape mismatch");
  w_eff_ = mul(w_.value, f);
  factors_ = f;
  var_active_ = true;
}

void Conv2D::clear_weight_factors() {
  var_active_ = false;
  w_eff_ = Tensor();
  factors_ = Tensor();
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto c = std::make_unique<Conv2D>(geom_.in_c, out_c_, geom_.k_h, geom_.stride,
                                    geom_.pad, geom_.in_h, geom_.in_w, label_);
  c->w_ = w_;
  c->b_ = b_;
  c->w_eff_ = w_eff_;
  c->factors_ = factors_;
  c->var_active_ = var_active_;
  return c;
}

}  // namespace cn::nn
