// Fusion pass pipeline + fused graph executor over the layer-graph IR.
//
// Three passes (plus one trivial elision) rewrite the graph nn::LayerGraph
// builds from a Sequential:
//
//   1. bn-fold        batchnorm2d following a conv2d folds into the conv's
//                     weight/bias (w' = w·γ/√(σ²+ε), b' = (b−μ)·γ/√(σ²+ε)+β).
//                     APPROXIMATE: scaling weights before accumulation
//                     re-rounds every product, so outputs carry a pinned
//                     float tolerance (kBnFold* below). The shipped models
//                     carry no batchnorm, so campaign reports stay
//                     byte-identical with fusion on.
//   2. relu-epilogue  relu following a matmul-bearing op (conv2d, dense,
//                     crossbar_conv2d, crossbar_dense) becomes a branchless
//                     max(0,·) in that op's bias epilogue. EXACT.
//   3. post-pool      max/avg pooling consuming a conv2d's or a
//                     crossbar_conv2d's output (directly, or through an
//                     already-fused relu/bn) pools inside the conv's
//                     write-out from a per-image scratch buffer — the
//                     full-resolution feature map is never materialized.
//                     Guarded on the window dividing the conv output
//                     (Layer::accepts_post_pool). EXACT: bitwise-identical
//                     (both convs pool with nn::pool_image).
//   4. pool-fuse      max/avg pooling feeding a conv2d moves into the conv's
//                     im2col producer (per-image staging buffer, identical
//                     pooling arithmetic). Mops up pools post-pool could not
//                     claim (no digital conv upstream). EXACT.
//   +  dropout-elide  dropout is the identity at eval; the node is dropped
//                     (the standalone layer would deep-copy). EXACT.
//
// Pass order matters and is fixed: dropout-elide → bn-fold → relu-epilogue →
// post-pool → pool-fuse. Relu fuses into a conv whose batchnorm was already
// folded away, and a conv→relu→pool chain collapses into one kernel because
// the pool's producer is resolved through the skipped relu node. Post-pool
// runs before pool-fuse so a pool between two convs fuses into the upstream
// conv (eliding its full-resolution output) rather than the downstream one.
//
// The executor adds one rewrite of its own: a flatten node whose input is an
// intermediate the plan owns is an in-place reshape (pure metadata, zero
// copy) instead of Flatten::forward's deep copy. EXACT.
//
// Per-pass rewrite counts land on the obs counters fusion.bn_folded,
// fusion.pools_fused, fusion.post_pools_fused, fusion.relu_fused,
// fusion.dropout_elided, and fusion.plans counts plan builds.
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
/// Process-wide override (tests, campaign `fusion` key, --fusion flag).
void set_fusion_enabled(bool on);
/// Drops the override, falling back to env/default.
void reset_fusion_enabled();

struct FusionOptions {
  bool fold_batchnorm = true;
  bool fuse_pool = true;
  bool fuse_relu = true;
  bool elide_dropout = true;
};

struct FusionStats {
  int64_t bn_folded = 0;
  int64_t pools_fused = 0;       // pool-fuse (pool ahead of a conv's im2col)
  int64_t post_pools_fused = 0;  // post-pool (pool inside a conv's epilogue)
  int64_t relu_fused = 0;
  int64_t dropout_elided = 0;
  int64_t rewrites() const {
    return bn_folded + pools_fused + post_pools_fused + relu_fused +
           dropout_elided;
  }
};

/// Runs the pass pipeline over a built graph, annotating nodes in place, and
/// bumps the per-pass obs counters.
FusionStats run_fusion_passes(LayerGraph& g, const FusionOptions& opts = {});

// Tolerance contract for the bn-fold pass (the only approximate pass; every
// other rewrite is bitwise-exact). Per element: PASS iff the fused output is
// within kBnFoldMaxUlps ULPs of the unfused output, or within
// kBnFoldRangeTol × max|unfused| absolute (the escape hatch for catastrophic
// cancellation near zero, where ULP distance is meaningless). The bound is
// ~10× the analytic worst case 2·K·ε_f32·max|term| for the conv reduction
// depths the op set reaches (K ≲ 600). Enforced by tests/test_fusion.cpp.
constexpr int64_t kBnFoldMaxUlps = 2048;
constexpr float kBnFoldRangeTol = 1e-3f;

/// A built+fused execution plan for one Sequential. Sequential::forward
/// caches one lazily per instance (invalidated on structural edits); tests
/// construct it directly to inspect the graph and stats.
class FusedPlan {
 public:
  explicit FusedPlan(Sequential& model, const FusionOptions& opts = {});

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
