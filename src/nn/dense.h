// Fully-connected layer with analog-weight (variation) support.
#pragma once

#include "nn/layer.h"

namespace cn::nn {

/// y = x W^T + b, with W (out, in) mapped onto an analog crossbar.
///
/// When variation factors are set (Monte-Carlo evaluation or
/// variation-in-the-loop training), forward/backward use
/// `w_eff = W ∘ f` so gradients flow through the *perturbed* operator —
/// exactly what CorrectNet's compensation training requires.
class Dense final : public Layer, public PerturbableWeight {
 public:
  Dense(int64_t in_features, int64_t out_features, std::string label = "dense");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Param*> params() override { return {&w_, &b_}; }
  void collect_analog(std::vector<PerturbableWeight*>& out) override {
    out.push_back(this);
  }
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "dense"; }
  bool is_analog() const override { return true; }

  // PerturbableWeight
  const Tensor& nominal_weight() const override { return w_.value; }
  void set_weight_factors(const Tensor& f) override;
  void clear_weight_factors() override;
  int64_t weight_count() const override { return w_.size(); }
  const std::string& site_label() const override { return label_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  /// The shared forward kernel over the live weight, with an optional
  /// branchless ReLU epilogue folded into the bias-add loop: forward() and
  /// forward_relu() (the fused relu-epilogue) share one accumulation order.
  Tensor forward_fused(const Tensor& x, bool relu);

  /// The weight tensor forward() would use right now: refreshes w ∘ f when
  /// variation factors are active.
  const Tensor& live_weight();
  const Tensor& effective_weight() const { return var_active_ ? w_eff_ : w_.value; }

  int64_t in_, out_;
  Param w_, b_;
  Tensor w_eff_;        // W ∘ f when variation active
  Tensor factors_;      // f, kept to chain dL/dW = dL/dW_eff ∘ f
  bool var_active_ = false;
  Tensor x_cache_;      // input saved by forward(train)
};

}  // namespace cn::nn
