// 2-D convolution (NCHW) via im2col + matmul, with analog-weight support.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace cn::nn {

/// Pools one image (C, OH*win, OW*win) -> (C, OH, OW) into `out`, with
/// arithmetic identical to MaxPool2D / AvgPool2D forward (same accumulation
/// order, same 1/(win*win) factor) — what keeps the fused post-pool of both
/// the digital and the crossbar conv bitwise-exact.
void pool_image(const float* img, const PrePool& p, int64_t C, int64_t OH,
                int64_t OW, float* out);

/// Convolution with kernel W stored as (out_c, in_c*kh*kw) and bias (out_c).
///
/// Forward/backward run per-image im2col in parallel over the batch. The
/// kernel matrix is the analog crossbar payload; variation factors multiply
/// it elementwise (paper Eq. 1).
class Conv2D final : public Layer, public PerturbableWeight {
 public:
  Conv2D(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride, int64_t pad,
         int64_t in_h, int64_t in_w, std::string label = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// Eval/exec kernel over the live weight and bias, with an optional
  /// branchless ReLU epilogue and optional post-pool stage (the conv's
  /// output is pooled per image from a scratch buffer before it is written
  /// back, so the full-resolution feature map is never materialized; the
  /// ReLU epilogue, when requested, applies before pooling, matching the
  /// conv→relu→pool layer order). forward() routes through this, so the
  /// fused and unfused paths share one accumulation order (the exactness
  /// contract). A post-pool window must divide the conv output exactly
  /// (accepts_post_pool, which the fused plan checks).
  Tensor forward_fused(const Tensor& x, bool relu,
                       const PrePool* post_pool = nullptr);

  bool accepts_post_pool(const PrePool& pool) const override {
    return pool.window > 0 && out_h() % pool.window == 0 &&
           out_w() % pool.window == 0;
  }
  Tensor forward_pooled(const Tensor& x, bool relu, const PrePool& pool) override {
    return forward_fused(x, relu, &pool);
  }

  std::vector<Param*> params() override { return {&w_, &b_}; }
  void collect_analog(std::vector<PerturbableWeight*>& out) override {
    out.push_back(this);
  }
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "conv2d"; }
  bool is_analog() const override { return true; }

  // PerturbableWeight
  const Tensor& nominal_weight() const override { return w_.value; }
  void set_weight_factors(const Tensor& f) override;
  void clear_weight_factors() override;
  int64_t weight_count() const override { return w_.size(); }
  const std::string& site_label() const override { return label_; }

  const ConvGeom& geom() const { return geom_; }
  int64_t out_channels() const { return out_c_; }
  int64_t in_channels() const { return geom_.in_c; }
  int64_t out_h() const { return geom_.out_h(); }
  int64_t out_w() const { return geom_.out_w(); }
  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  /// The weight tensor forward() would use right now: refreshes w ∘ f when
  /// variation factors are active.
  const Tensor& live_weight() {
    if (var_active_) w_eff_ = mul(w_.value, factors_);
    return effective_weight();
  }
  const Tensor& effective_weight() const { return var_active_ ? w_eff_ : w_.value; }

  ConvGeom geom_;
  int64_t out_c_;
  Param w_, b_;
  Tensor w_eff_;
  Tensor factors_;     // f, kept to chain dL/dW = dL/dW_eff ∘ f
  bool var_active_ = false;
  Tensor x_cache_;     // (N, C, H, W) input for backward
};

}  // namespace cn::nn
