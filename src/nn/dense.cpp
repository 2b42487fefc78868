#include "nn/dense.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.h"

namespace cn::nn {

Dense::Dense(int64_t in_features, int64_t out_features, std::string label)
    : in_(in_features),
      out_(out_features),
      w_(Shape{out_features, in_features}, label + ".w"),
      b_(Shape{out_features}, label + ".b") {
  label_ = std::move(label);
}

Tensor Dense::forward(const Tensor& x, bool train) {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  if (train) x_cache_ = x;
  return forward_fused(x, /*relu=*/false);
}

Tensor Dense::forward_relu(const Tensor& x) {
  return forward_fused(x, /*relu=*/true);
}

const Tensor& Dense::live_weight() {
  if (var_active_) w_eff_ = mul(w_.value, factors_);
  return effective_weight();
}

Tensor Dense::forward_fused(const Tensor& x, bool relu) {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  // live_weight() refreshes the effective weight so nominal-weight edits
  // between forwards (optimizer steps, tests) are always reflected.
  Tensor y = matmul_nt(x, live_weight());  // (N, out)
  const float* b = b_.value.data();
  const int64_t N = y.dim(0);
  for (int64_t n = 0; n < N; ++n) {
    float* row = y.data() + n * out_;
    for (int64_t o = 0; o < out_; ++o) row[o] += b[o];
    if (relu)
      for (int64_t o = 0; o < out_; ++o) row[o] = std::max(row[o], 0.0f);
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  if (x_cache_.empty())
    throw std::logic_error(label_ + ": backward without cached forward");
  const int64_t N = grad_out.dim(0);
  // dW_eff = dY^T X, db = colsum(dY), dX = dY W_eff.
  // With variation active, W_eff = W ∘ f, so dL/dW = dL/dW_eff ∘ f.
  Tensor dW = matmul_tn(grad_out, x_cache_);  // (out, in)
  if (var_active_) mul_inplace(dW, factors_);
  add_inplace(w_.grad, dW);
  for (int64_t n = 0; n < N; ++n) {
    const float* row = grad_out.data() + n * out_;
    for (int64_t o = 0; o < out_; ++o) b_.grad[o] += row[o];
  }
  return matmul(grad_out, effective_weight());
}

void Dense::set_weight_factors(const Tensor& f) {
  if (!f.same_shape(w_.value))
    throw std::invalid_argument(label_ + ": factor shape mismatch");
  w_eff_ = mul(w_.value, f);
  factors_ = f;
  var_active_ = true;
}

void Dense::clear_weight_factors() {
  var_active_ = false;
  w_eff_ = Tensor();
  factors_ = Tensor();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto c = std::make_unique<Dense>(in_, out_, label_);
  c->w_ = w_;
  c->b_ = b_;
  c->w_eff_ = w_eff_;
  c->factors_ = factors_;
  c->var_active_ = var_active_;
  return c;
}

}  // namespace cn::nn
