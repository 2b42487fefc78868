#include "nn/fusion.h"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>

#include "nn/activations.h"
#include "nn/pooling.h"
#include "obs/metrics.h"

namespace cn::nn {

// ---------------------------------------------------------------------------
// Process-wide knob: an explicit override wins, otherwise CORRECTNET_FUSION is read and validated once at
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
  const std::string s =
      core::KeyValueConfig::from_env(fusion_knobs()).str("CORRECTNET_FUSION");
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  throw std::runtime_error("CORRECTNET_FUSION: invalid value '" + s +
                           "' (expected on/off/1/0)");
}

}  // namespace

const core::Knobs& fusion_knobs() {
  static const core::Knobs rows = {
      {"", core::KnobType::kString, "on", "", "CORRECTNET_FUSION"}};
  return rows;
}

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
// Plan construction and execution.
// ---------------------------------------------------------------------------

namespace {

// Reads a pool layer's window/kind into a PrePool; window 0 = not a pool.
PrePool pool_params(Layer& l) {
  PrePool pp;
  if (auto* mp = dynamic_cast<MaxPool2D*>(&l)) {
    pp.kind = PrePool::Kind::kMax;
    pp.window = mp->window();
  } else if (auto* ap = dynamic_cast<AvgPool2D*>(&l)) {
    pp.kind = PrePool::Kind::kAvg;
    pp.window = ap->window();
  }
  return pp;
}

Tensor run_step(const Step& s, const Tensor& x) {
  if (s.post_pool.window > 0)
    return s.layer->forward_pooled(x, s.relu, s.post_pool);
  if (s.relu) return s.layer->forward_relu(x);
  return s.layer->forward(x, /*train=*/false);
}

}  // namespace

FusedPlan::FusedPlan(Sequential& model) {
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    Layer& l = model.layer(i);
    Step* prev = steps_.empty() ? nullptr : &steps_.back();
    // Folding into a step that already pools would reorder the pool ahead
    // of the folded op, so only an unpooled step absorbs its successor.
    if (prev && prev->post_pool.window == 0) {
      if (dynamic_cast<ReLU*>(&l) && !prev->relu && prev->layer->is_analog()) {
        prev->relu = true;
        ++stats_.relu_fused;
        continue;
      }
      const PrePool pool = pool_params(l);
      if (pool.window > 0 && prev->layer->accepts_post_pool(pool)) {
        prev->post_pool = pool;
        ++stats_.post_pools_fused;
        continue;
      }
    }
    Step s;
    s.layer = &l;
    s.reshape = prev && dynamic_cast<Flatten*>(&l);
    steps_.push_back(s);
  }
  auto& m = obs::metrics();
  m.counter("fusion.relu_fused").add(static_cast<uint64_t>(stats_.relu_fused));
  m.counter("fusion.post_pools_fused")
      .add(static_cast<uint64_t>(stats_.post_pools_fused));
  m.counter("fusion.plans").add(1);
}

Tensor FusedPlan::execute(const Tensor& x) {
  // Empty model: identity, matching the plain layer loop.
  if (steps_.empty()) return x;
  const Tensor* cur = &x;
  Tensor h;
  for (const Step& s : steps_) {
    // A flatten after the first step only ever sees an intermediate the
    // plan owns: reshaping it is pure metadata, bitwise-exact. A flatten
    // that is the first step still copies, since the caller's tensor must
    // not be mutated.
    if (s.reshape) {
      h.reshape({h.dim(0), h.size() / h.dim(0)});
      continue;
    }
    h = run_step(s, *cur);
    cur = &h;
  }
  return h;
}

}  // namespace cn::nn
