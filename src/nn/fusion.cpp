#include "nn/fusion.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "nn/pooling.h"
#include "obs/metrics.h"

namespace cn::nn {

// ---------------------------------------------------------------------------
// Process-wide knob. Same shape as the exec-target default: an explicit
// override wins, otherwise CORRECTNET_FUSION is read and validated once at
// first use (so a typo'd CI matrix value fails loudly), default on.
// ---------------------------------------------------------------------------

namespace {

struct FusionKnob {
  std::once_flag env_once;
  bool env_default = true;
  std::atomic<int> override_{-1};  // -1 = none, 0 = off, 1 = on
};

FusionKnob& knob() {
  static FusionKnob k;
  return k;
}

bool parse_fusion_env() {
  const char* v = std::getenv("CORRECTNET_FUSION");
  if (!v || !*v) return true;
  const std::string s(v);
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  throw std::runtime_error("CORRECTNET_FUSION: invalid value '" + s +
                           "' (expected on/off/1/0)");
}

}  // namespace

bool fusion_enabled() {
  FusionKnob& k = knob();
  const int ov = k.override_.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0;
  std::call_once(k.env_once, [&k] { k.env_default = parse_fusion_env(); });
  return k.env_default;
}

void set_fusion_enabled(bool on) {
  knob().override_.store(on ? 1 : 0, std::memory_order_relaxed);
}

void reset_fusion_enabled() {
  knob().override_.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Passes. The chain is linear (one producer, one consumer per node), so a
// node's effective producer is found by walking through skipped nodes.
// ---------------------------------------------------------------------------

namespace {

GraphNode* live_producer(LayerGraph& g, const GraphNode& n) {
  const GraphNode* cur = &n;
  while (!cur->producers.empty()) {
    GraphNode* p = &g.nodes[static_cast<size_t>(cur->producers.front())];
    if (!p->skip) return p;
    cur = p;
  }
  return nullptr;
}

int64_t pass_elide_dropout(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kDropout || node.skip) continue;
    node.skip = true;
    ++n;
  }
  return n;
}

// Reads a pool layer's window/kind into a PrePool; window 0 = not a pool.
PrePool pool_params(const GraphNode& node) {
  PrePool pp;
  if (auto* mp = dynamic_cast<MaxPool2D*>(node.layer)) {
    pp.kind = PrePool::Kind::kMax;
    pp.window = mp->window();
  } else if (auto* ap = dynamic_cast<AvgPool2D*>(node.layer)) {
    pp.kind = PrePool::Kind::kAvg;
    pp.window = ap->window();
  }
  return pp;
}

// Pool consuming a conv's output — digital or crossbar (any layer whose
// accepts_post_pool agrees), directly or through skipped relu/dropout
// nodes — pools as that conv writes its output. Runs
// before pass_fuse_pool so the upstream conv — whose full-resolution output
// the rewrite elides — wins over the downstream one.
int64_t pass_fuse_post_pool(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if ((node.op != OpKind::kMaxPool && node.op != OpKind::kAvgPool) ||
        node.skip)
      continue;
    GraphNode* p = live_producer(g, node);
    if (!p || p->post_pool.window > 0) continue;
    const PrePool pp = pool_params(node);
    if (pp.window <= 0 || !p->layer->accepts_post_pool(pp)) continue;
    p->post_pool = pp;
    node.skip = true;
    ++n;
  }
  return n;
}

int64_t pass_fuse_pool(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kConv2D || node.skip) continue;
    if (node.pre_pool.window > 0) continue;
    auto* conv = dynamic_cast<Conv2D*>(node.layer);
    if (!conv) continue;
    GraphNode* p = live_producer(g, node);
    if (!p || (p->op != OpKind::kMaxPool && p->op != OpKind::kAvgPool)) continue;
    const PrePool pp = pool_params(*p);
    if (pp.window <= 0) continue;
    node.pre_pool = pp;
    p->skip = true;
    ++n;
  }
  return n;
}

int64_t pass_fuse_relu(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kReLU || node.skip) continue;
    GraphNode* p = live_producer(g, node);
    if (!p || p->relu_epilogue) continue;
    const bool matmul_bearing =
        p->op == OpKind::kConv2D || p->op == OpKind::kDense ||
        p->op == OpKind::kCrossbarConv2D || p->op == OpKind::kCrossbarDense;
    if (!matmul_bearing) continue;
    p->relu_epilogue = true;
    node.skip = true;
    ++n;
  }
  return n;
}

}  // namespace

FusionStats run_fusion_passes(LayerGraph& g) {
  FusionStats s;
  s.dropout_elided = pass_elide_dropout(g);
  s.relu_fused = pass_fuse_relu(g);
  s.post_pools_fused = pass_fuse_post_pool(g);
  s.pools_fused = pass_fuse_pool(g);
  auto& m = obs::metrics();
  m.counter("fusion.dropout_elided").add(static_cast<uint64_t>(s.dropout_elided));
  m.counter("fusion.pools_fused").add(static_cast<uint64_t>(s.pools_fused));
  m.counter("fusion.post_pools_fused")
      .add(static_cast<uint64_t>(s.post_pools_fused));
  m.counter("fusion.relu_fused").add(static_cast<uint64_t>(s.relu_fused));
  return s;
}

// ---------------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------------

FusedPlan::FusedPlan(Sequential& model)
    : graph_(LayerGraph::build(model, /*train=*/false)) {
  stats_ = run_fusion_passes(graph_);
  obs::metrics().counter("fusion.plans").add(1);
}

Tensor FusedPlan::run_node(GraphNode& n, const Tensor& x) {
  if (n.op == OpKind::kConv2D) {
    if (auto* conv = dynamic_cast<Conv2D*>(n.layer)) {
      const PrePool* pp = n.pre_pool.window > 0 ? &n.pre_pool : nullptr;
      const PrePool* post = n.post_pool.window > 0 ? &n.post_pool : nullptr;
      return conv->forward_fused(x, pp, n.relu_epilogue, post);
    }
  }
  if (n.post_pool.window > 0)
    return n.layer->forward_pooled(x, n.relu_epilogue, n.post_pool);
  if (n.relu_epilogue) return n.layer->forward_relu(x);
  return n.layer->forward(x, /*train=*/false);
}

Tensor FusedPlan::execute(const Tensor& x) {
  const Tensor* cur = &x;
  Tensor h;
  bool ran = false;
  for (GraphNode& n : graph_.nodes) {
    if (n.skip) continue;
    // Flatten over an intermediate the plan owns is pure metadata: reshape
    // in place instead of Flatten::forward's deep copy. Bitwise-exact (the
    // buffer is untouched). The graph-input case still copies — the caller's
    // tensor must not be mutated.
    if (n.op == OpKind::kFlatten && ran && h.rank() >= 1 && h.dim(0) > 0) {
      h.reshape({h.dim(0), h.size() / h.dim(0)});
      continue;
    }
    Tensor out = run_node(n, *cur);
    h = std::move(out);
    cur = &h;
    ran = true;
  }
  // Empty or fully-elided graph: identity, matching the plain layer loop.
  return ran ? std::move(h) : Tensor(x);
}

}  // namespace cn::nn
