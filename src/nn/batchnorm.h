// 2-D batch normalization.
//
// In analog-in-memory designs the affine normalization typically executes in
// the digital periphery, so BatchNorm2D carries no analog site: its
// parameters are never perturbed. At inference it applies fixed running
// statistics, so it does NOT adapt to (and cannot mask) weight variations.
#pragma once

#include "nn/layer.h"

namespace cn::nn {

class BatchNorm2D final : public Layer {
 public:
  explicit BatchNorm2D(int64_t channels, float momentum = 0.9f, float eps = 1e-5f,
                       std::string label = "bn");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "batchnorm2d"; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  int64_t channels() const { return channels_; }
  float eps() const { return eps_; }

 private:
  int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // backward caches
  Tensor x_hat_;       // normalized input
  Tensor batch_inv_std_;
  Shape in_shape_;
};

}  // namespace cn::nn
