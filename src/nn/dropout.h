// Dropout regularization layer.
#pragma once

#include "nn/layer.h"

namespace cn::nn {

/// Inverted dropout: active only during training; identity at inference.
/// Takes an explicit RNG so training runs stay deterministic.
class Dropout final : public Layer {
 public:
  Dropout(float p, uint64_t seed, std::string label = "dropout");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "dropout"; }

  float rate() const { return p_; }

 private:
  float p_;
  Rng rng_;
  uint64_t seed_;
  Tensor mask_;
};

}  // namespace cn::nn
