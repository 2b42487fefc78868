// Randomized model generator for the fused-plan parity harness
// (tests/test_fusion.cpp). Draws a small Sequential from the fusible op set —
// conv blocks with optional leading pool, trailing batchnorm / relu /
// dropout, then flatten and a dense head — with every weight drawn from the
// seed, so a (seed, allow_batchnorm) pair is a reproducible parity case.
//
// BatchNorm running statistics are warmed by a few train-mode forwards inside
// the generator (an unwarmed BN is a near-identity affine); dropout layers
// get seeds derived from the model seed. The generator reports whether
// batchnorm was actually placed, so callers can count the BN-bearing cases
// they checked.
#pragma once

#include <cstdint>
#include <string>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/rng.h"

namespace cn::testutil {

struct RandomModelSpec {
  uint64_t seed = 1;
  bool allow_batchnorm = true;
  int64_t in_c = 1;    // input channels
  int64_t in_hw = 12;  // input height == width
};

struct RandomModel {
  nn::Sequential model{"rand"};
  int64_t in_c = 0;
  int64_t in_hw = 0;
  bool has_batchnorm = false;  // a BN layer was actually placed
};

inline RandomModel make_random_model(const RandomModelSpec& spec) {
  Rng rng(spec.seed);
  RandomModel rm;
  rm.in_c = spec.in_c;
  rm.in_hw = spec.in_hw;
  nn::Sequential& m = rm.model;
  int64_t c = spec.in_c, h = spec.in_hw, w = spec.in_hw;

  const int blocks = 1 + static_cast<int>(rng.uniform_int(2));  // 1..2
  for (int b = 0; b < blocks; ++b) {
    // A pool in front of the conv: after the previous block's conv (or its
    // relu) it folds into that conv as a post-pool, otherwise it runs as its
    // own step. Gated on divisibility and on leaving room for the 3x3
    // kernel below.
    if (h % 2 == 0 && h / 2 >= 3 && rng.uniform() < 0.5) {
      if (rng.uniform() < 0.5)
        m.emplace<nn::MaxPool2D>(2, "pool" + std::to_string(b));
      else
        m.emplace<nn::AvgPool2D>(2, "pool" + std::to_string(b));
      h /= 2;
      w /= 2;
    }
    if (h < 3) break;  // no room left for a 3x3 kernel
    const int64_t out_c = 3 + rng.uniform_int(4);  // 3..6
    const int64_t pad = rng.uniform_int(2);        // 0 or 1
    auto& conv = m.emplace<nn::Conv2D>(c, out_c, 3, 1, pad, h, w,
                                       "conv" + std::to_string(b));
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    h += 2 * pad - 2;
    w += 2 * pad - 2;
    c = out_c;
    if (spec.allow_batchnorm && rng.uniform() < 0.5) {
      auto& bn = m.emplace<nn::BatchNorm2D>(c, 0.9f, 1e-5f,
                                            "bn" + std::to_string(b));
      // Non-trivial affine, so a BN-bearing graph differs from its BN-free twin.
      rng.fill_normal(bn.gamma().value, 1.0f, 0.2f);
      rng.fill_normal(bn.beta().value, 0.0f, 0.2f);
      rm.has_batchnorm = true;
    }
    if (rng.uniform() < 0.7) m.emplace<nn::ReLU>("relu" + std::to_string(b));
    if (rng.uniform() < 0.4)
      m.emplace<nn::Dropout>(0.3f, spec.seed + 7 + static_cast<uint64_t>(b),
                             "drop" + std::to_string(b));
  }

  m.emplace<nn::Flatten>();
  const int64_t feat = c * h * w;
  const int64_t hidden = 8 + rng.uniform_int(9);  // 8..16
  auto& d1 = m.emplace<nn::Dense>(feat, hidden, "fc1");
  rng.fill_normal(d1.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d1.bias().value, 0.0f, 0.1f);
  if (rng.uniform() < 0.7) m.emplace<nn::ReLU>("relu_fc");
  if (rng.uniform() < 0.4) m.emplace<nn::Dropout>(0.25f, spec.seed + 31, "drop_fc");
  auto& d2 = m.emplace<nn::Dense>(hidden, 4, "head");
  rng.fill_normal(d2.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d2.bias().value, 0.0f, 0.1f);

  // Warm BN running statistics with train-mode forwards (the plain layer
  // loop — fusion never engages in train mode).
  if (rm.has_batchnorm) {
    Tensor xb({4, spec.in_c, spec.in_hw, spec.in_hw});
    for (int it = 0; it < 3; ++it) {
      rng.fill_normal(xb, 0.0f, 1.0f);
      (void)m.forward(xb, /*train=*/true);
    }
  }
  return rm;
}

/// A deterministic eval batch matching the model's input geometry.
inline Tensor random_input(const RandomModel& rm, uint64_t seed,
                           int64_t batch = 3) {
  Rng rng(seed);
  Tensor x({batch, rm.in_c, rm.in_hw, rm.in_hw});
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

}  // namespace cn::testutil
