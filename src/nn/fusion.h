// Fused eval-mode execution plan for a Sequential.
//
// FusedPlan's constructor walks the model's layers once and folds them into
// a linear list of steps. Every fold is EXACT — the plan's output is
// bitwise-identical to the plain layer loop:
//
//   relu       a ReLU after a step whose layer is_analog() (conv2d, dense,
//              their crossbar twins, compensated_conv2d) and that has no
//              post-pool runs inside that layer's Layer::forward_relu — a
//              branchless max(0,·) in the bias epilogue, or the default
//              in-place clamp — instead of as a deep-copying ReLU layer.
//   post-pool  a max/avg pool after a step whose layer accepts_post_pool
//              (conv2d, crossbar_conv2d; the window divides the output) and
//              that has no post-pool yet pools inside that layer's write-out
//              (Layer::forward_pooled), after its folded relu if any, so the
//              full-resolution feature map is never materialized.
//   reshape    a flatten after the first step reshapes the plan-owned
//              intermediate in place instead of Flatten::forward's deep copy.
//
// Everything else (batchnorm, dropout, a pool with no conv before it, a relu
// after a post-pool) runs as its own step through Layer::forward.
//
// Fold counts land on the obs counters fusion.relu_fused and
// fusion.post_pools_fused; fusion.plans counts plan builds.
//
// The process-wide knob: set_fusion_enabled() override > CORRECTNET_FUSION
// env ("on"/"off"/"1"/"0", validated at first use) > default ON.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "nn/sequential.h"

namespace cn::nn {

/// True if Sequential::forward should execute eval passes through the fused
/// plan. Override > CORRECTNET_FUSION env > default on. An invalid env value
/// throws std::runtime_error at first use.
bool fusion_enabled();
/// Process-wide override (tests and benches comparing against the unfused
/// reference).
void set_fusion_enabled(bool on);
/// Drops the override, falling back to env/default.
void reset_fusion_enabled();
/// The CORRECTNET_FUSION row (docs/CONFIG.md "Environment knobs").
const core::Knobs& fusion_knobs();

struct FusionStats {
  int64_t post_pools_fused = 0;
  int64_t relu_fused = 0;
  int64_t rewrites() const { return post_pools_fused + relu_fused; }
};

/// One executed layer with whatever its successors folded into it.
struct Step {
  Layer* layer = nullptr;
  bool relu = false;     // a following ReLU runs in the layer's epilogue
  PrePool post_pool;     // a following pool runs in its write-out (window 0 = none)
  bool reshape = false;  // flatten: reshape the intermediate in place
};

/// The fused plan for one Sequential. Holds raw Layer pointers into the
/// model, so Sequential::forward caches one lazily per instance and drops it
/// on structural edits; tests construct it directly to inspect the steps.
class FusedPlan {
 public:
  explicit FusedPlan(Sequential& model);

  /// Executes the steps (eval mode). Weights are read live from the layers
  /// on every call, so weight edits and variation factors between forwards
  /// behave exactly like the unfused path.
  Tensor execute(const Tensor& x);

  const std::vector<Step>& steps() const { return steps_; }
  const FusionStats& stats() const { return stats_; }

 private:
  std::vector<Step> steps_;
  FusionStats stats_;
};

}  // namespace cn::nn
