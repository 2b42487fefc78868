// Fusion pass pipeline + fused graph executor over the layer-graph IR.
//
// Four passes rewrite the graph nn::LayerGraph builds from a Sequential, and
// every one is EXACT — the fused plan's output is bitwise-identical to the
// plain layer loop:
//
//   1. dropout-elide  dropout is the identity at eval; the node is dropped
//                     (the standalone layer would deep-copy).
//   2. relu-epilogue  relu following a matmul-bearing op (conv2d, dense,
//                     crossbar_conv2d, crossbar_dense) becomes a branchless
//                     max(0,·) in that op's bias epilogue.
//   3. post-pool      max/avg pooling consuming a conv2d's or a
//                     crossbar_conv2d's output (directly, or through an
//                     already-fused relu) pools inside the conv's write-out
//                     from a per-image scratch buffer — the full-resolution
//                     feature map is never materialized. Guarded on the
//                     window dividing the conv output
//                     (Layer::accepts_post_pool); both convs pool with
//                     nn::pool_image.
//   4. pool-fuse      max/avg pooling feeding a conv2d moves into the conv's
//                     im2col producer (per-image staging buffer, identical
//                     pooling arithmetic). Mops up pools post-pool could not
//                     claim (no digital conv upstream).
//
// Pass order matters and is fixed: dropout-elide → relu-epilogue →
// post-pool → pool-fuse. A conv→relu→pool chain collapses into one kernel
// because the pool's producer is resolved through the skipped relu node.
// Post-pool runs before pool-fuse so a pool between two convs fuses into the
// upstream conv (eliding its full-resolution output) rather than the
// downstream one. BatchNorm2D always runs as its own node.
//
// The executor adds one rewrite of its own: a flatten node whose input is an
// intermediate the plan owns is an in-place reshape (pure metadata, zero
// copy) instead of Flatten::forward's deep copy. EXACT.
//
// Per-pass rewrite counts land on the obs counters fusion.pools_fused,
// fusion.post_pools_fused, fusion.relu_fused, fusion.dropout_elided, and
// fusion.plans counts plan builds.
//
// The process-wide knob: set_fusion_enabled() override > CORRECTNET_FUSION
// env ("on"/"off"/"1"/"0", validated at first use) > default ON.
#pragma once

#include <cstdint>

#include "nn/graph.h"

namespace cn::nn {

/// True if Sequential::forward should execute eval passes through the fused
/// graph plan. Override > CORRECTNET_FUSION env > default on. An invalid
/// env value throws std::runtime_error at first use.
bool fusion_enabled();
/// Process-wide override (tests and benches comparing against the unfused
/// reference).
void set_fusion_enabled(bool on);
/// Drops the override, falling back to env/default.
void reset_fusion_enabled();

struct FusionStats {
  int64_t pools_fused = 0;       // pool-fuse (pool ahead of a conv's im2col)
  int64_t post_pools_fused = 0;  // post-pool (pool inside a conv's epilogue)
  int64_t relu_fused = 0;
  int64_t dropout_elided = 0;
  int64_t rewrites() const {
    return pools_fused + post_pools_fused + relu_fused + dropout_elided;
  }
};

/// Runs the pass pipeline over a built graph, annotating nodes in place, and
/// bumps the per-pass obs counters.
FusionStats run_fusion_passes(LayerGraph& g);

/// A built+fused execution plan for one Sequential. Sequential::forward
/// caches one lazily per instance (invalidated on structural edits); tests
/// construct it directly to inspect the graph and stats.
class FusedPlan {
 public:
  explicit FusedPlan(Sequential& model);

  /// Executes the annotated graph (eval mode). Weights are read live from
  /// the layers on every call, so weight edits and variation factors between
  /// forwards behave exactly like the unfused path.
  Tensor execute(const Tensor& x);

  const LayerGraph& graph() const { return graph_; }
  const FusionStats& stats() const { return stats_; }

 private:
  Tensor run_node(GraphNode& n, const Tensor& x);

  LayerGraph graph_;
  FusionStats stats_;
};

}  // namespace cn::nn
