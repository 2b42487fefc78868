// The layer-graph IR and fusion pass pipeline (nn/graph.h, nn/fusion.h):
// per-pass unit oracles (relu-epilogue exactness, pool-fusion vs the
// standalone layers, dropout elision), the process-wide knob contract,
// train-mode lowering refusal, the randomized graph-parity sweep (fused vs
// unfused, bitwise with and without batchnorm, on the digital path and on
// crossbar chips across every registered execution target), and
// campaign-report byte-identity with fusion forced on vs off.
#include "nn/fusion.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "data/synthetic.h"
#include "exec/target.h"
#include "exec_testutil.h"
#include "faultsim/campaign.h"
#include "graph_testutil.h"
#include "models/lenet.h"
#include "nn/graph.h"
#include "obs/metrics.h"

namespace cn {
namespace {

// Every test pins the knob explicitly and restores the ambient default on
// exit, so the suite behaves identically under the CORRECTNET_FUSION=off CI
// leg and never leaks an override into later tests.
struct FusionGuard {
  FusionGuard() = default;
  ~FusionGuard() { nn::reset_fusion_enabled(); }
};

Tensor forward_with_fusion(nn::Sequential& m, const Tensor& x, bool fused) {
  nn::set_fusion_enabled(fused);
  return m.forward(x, /*train=*/false);
}

const nn::GraphNode* find_node(const nn::LayerGraph& g,
                               const std::string& label) {
  for (const nn::GraphNode& n : g.nodes)
    if (n.layer && n.layer->label() == label) return &n;
  return nullptr;
}

// What fusion_enabled() must resolve to with no override live: the
// validated CORRECTNET_FUSION (how the CI fusion-off leg forces the knob
// under this very binary), else on.
bool ambient_fusion() {
  const char* e = std::getenv("CORRECTNET_FUSION");
  if (!e || !*e) return true;
  const std::string v(e);
  return !(v == "off" || v == "0" || v == "false");
}

// ---------- knob ----------

TEST(FusionKnob, OverrideWinsAndResetRestoresAmbientDefault) {
  nn::reset_fusion_enabled();
  EXPECT_EQ(nn::fusion_enabled(), ambient_fusion());
  nn::set_fusion_enabled(false);
  EXPECT_FALSE(nn::fusion_enabled());
  nn::set_fusion_enabled(true);
  EXPECT_TRUE(nn::fusion_enabled());
  nn::reset_fusion_enabled();
  EXPECT_EQ(nn::fusion_enabled(), ambient_fusion());
}

// ---------- train-mode lowering ----------

TEST(LayerGraphBuild, TrainModeLoweringThrowsNamingSensitiveLayers) {
  nn::Sequential m("train");
  m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 6, 6, "conv");
  m.emplace<nn::BatchNorm2D>(2, 0.9f, 1e-5f, "bn0");
  m.emplace<nn::Dropout>(0.5f, 7, "d0");
  try {
    nn::LayerGraph::build(m, /*train=*/true);
    FAIL() << "train-mode lowering must throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bn0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("d0"), std::string::npos) << msg;
  }
  // Training graphs have no lowering even without sensitive layers.
  nn::Sequential plain("plain");
  plain.emplace<nn::Dense>(4, 2, "fc");
  EXPECT_THROW(nn::LayerGraph::build(plain, /*train=*/true), std::logic_error);
  // Eval-mode lowering of the same chains succeeds.
  EXPECT_EQ(nn::LayerGraph::build(m).nodes.size(), 3u);
  EXPECT_EQ(nn::LayerGraph::build(plain).nodes.size(), 1u);
}

TEST(LayerGraphBuild, LayersReportTrainModeSensitivity) {
  nn::BatchNorm2D bn(2);
  nn::Dropout dr(0.5f, 1);
  nn::Conv2D conv(1, 1, 3, 1, 1, 6, 6);
  nn::ReLU relu;
  EXPECT_TRUE(bn.train_mode_sensitive());
  EXPECT_TRUE(dr.train_mode_sensitive());
  EXPECT_FALSE(conv.train_mode_sensitive());
  EXPECT_FALSE(relu.train_mode_sensitive());
}

TEST(LayerGraphBuild, TrainForwardBypassesFusionEntirely) {
  // With fusion forced on, a train-mode forward must still run the plain
  // layer loop (live dropout, batch statistics) and never try to lower.
  FusionGuard guard;
  nn::set_fusion_enabled(true);
  Rng rng(41);
  nn::Sequential m("train-fwd");
  auto& conv = m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  m.emplace<nn::BatchNorm2D>(2, 0.9f, 1e-5f, "bn");
  m.emplace<nn::Dropout>(0.5f, 7, "d");
  Tensor x({2, 1, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = m.forward(x, /*train=*/true);
  EXPECT_EQ(y.size(), 2 * 2 * 6 * 6);
}

// ---------- per-pass oracles ----------

TEST(FusionPasses, ReluEpilogueIsBitwiseExact) {
  FusionGuard guard;
  Rng rng(21);
  nn::Sequential m("relu");
  auto& conv = m.emplace<nn::Conv2D>(1, 4, 3, 1, 0, 10, 10, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
  m.emplace<nn::ReLU>("r1");
  m.emplace<nn::Flatten>();
  auto& d = m.emplace<nn::Dense>(4 * 8 * 8, 6, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d.bias().value, 0.0f, 0.1f);
  m.emplace<nn::ReLU>("r2");
  Tensor x({3, 1, 10, 10});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = forward_with_fusion(m, x, false);
  const Tensor fused = forward_with_fusion(m, x, true);
  testutil::expect_bitwise_equal(fused, unfused, "relu epilogue (conv+dense)");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().relu_fused, 2);
  EXPECT_TRUE(find_node(plan.graph(), "r1")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "r2")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "conv")->relu_epilogue);
  EXPECT_TRUE(find_node(plan.graph(), "fc")->relu_epilogue);
}

TEST(FusionPasses, PoolFusionIsBitwiseExact) {
  for (const bool use_max : {false, true}) {
    FusionGuard guard;
    Rng rng(use_max ? 31 : 32);
    nn::Sequential m(use_max ? "maxpool-conv" : "avgpool-conv");
    if (use_max)
      m.emplace<nn::MaxPool2D>(2, "pool");
    else
      m.emplace<nn::AvgPool2D>(2, "pool");
    auto& conv = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 6, 6, "conv");
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    Tensor x({2, 1, 12, 12});
    rng.fill_normal(x, 0.0f, 1.0f);

    const Tensor unfused = forward_with_fusion(m, x, false);
    const Tensor fused = forward_with_fusion(m, x, true);
    testutil::expect_bitwise_equal(
        fused, unfused, use_max ? "maxpool fusion" : "avgpool fusion");

    nn::FusedPlan plan(m);
    EXPECT_EQ(plan.stats().pools_fused, 1);
    const nn::GraphNode* conv_node = find_node(plan.graph(), "conv");
    ASSERT_NE(conv_node, nullptr);
    EXPECT_EQ(conv_node->pre_pool.window, 2);
    EXPECT_EQ(conv_node->pre_pool.kind, use_max ? nn::PrePool::Kind::kMax
                                                : nn::PrePool::Kind::kAvg);
    EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  }
}

TEST(FusionPasses, PostPoolFusionIsBitwiseExact) {
  // A pool consuming a conv's output pools inside the conv kernel; the
  // conv→relu→pool chain collapses into one node because the pool's producer
  // resolves through the fused relu.
  for (const bool use_max : {false, true}) {
    FusionGuard guard;
    Rng rng(use_max ? 61 : 62);
    nn::Sequential m(use_max ? "conv-relu-maxpool" : "conv-relu-avgpool");
    auto& conv = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 8, 8, "conv");
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    m.emplace<nn::ReLU>("r");
    if (use_max)
      m.emplace<nn::MaxPool2D>(2, "pool");
    else
      m.emplace<nn::AvgPool2D>(2, "pool");
    Tensor x({2, 1, 8, 8});
    rng.fill_normal(x, 0.0f, 1.0f);

    const Tensor unfused = forward_with_fusion(m, x, false);
    const Tensor fused = forward_with_fusion(m, x, true);
    ASSERT_EQ(fused.dim(2), 4);  // pooled geometry survives the rewrite
    testutil::expect_bitwise_equal(
        fused, unfused, use_max ? "post-maxpool fusion" : "post-avgpool fusion");

    nn::FusedPlan plan(m);
    EXPECT_EQ(plan.stats().post_pools_fused, 1);
    EXPECT_EQ(plan.stats().pools_fused, 0);
    const nn::GraphNode* conv_node = find_node(plan.graph(), "conv");
    ASSERT_NE(conv_node, nullptr);
    EXPECT_TRUE(conv_node->relu_epilogue);
    EXPECT_EQ(conv_node->post_pool.window, 2);
    EXPECT_EQ(conv_node->post_pool.kind, use_max ? nn::PrePool::Kind::kMax
                                                 : nn::PrePool::Kind::kAvg);
    EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  }
}

TEST(FusionPasses, PostPoolWinsOverPrePoolBetweenTwoConvs) {
  // conv1→pool→conv2: the pool must fuse into the UPSTREAM conv's epilogue
  // (eliding conv1's full-resolution output), not conv2's im2col producer —
  // and a relu AFTER the pool stays a standalone node (fusing it into conv1
  // would reorder relu before pooling).
  FusionGuard guard;
  Rng rng(63);
  nn::Sequential m("conv-pool-conv");
  auto& c1 = m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 8, 8, "c1");
  rng.fill_normal(c1.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c1.bias().value, 0.0f, 0.2f);
  m.emplace<nn::AvgPool2D>(2, "pool");
  m.emplace<nn::ReLU>("r");
  auto& c2 = m.emplace<nn::Conv2D>(2, 3, 3, 1, 1, 4, 4, "c2");
  rng.fill_normal(c2.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c2.bias().value, 0.0f, 0.2f);
  Tensor x({2, 1, 8, 8});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = forward_with_fusion(m, x, false);
  const Tensor fused = forward_with_fusion(m, x, true);
  testutil::expect_bitwise_equal(fused, unfused, "post-pool between convs");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().post_pools_fused, 1);
  EXPECT_EQ(plan.stats().pools_fused, 0);
  EXPECT_EQ(plan.stats().relu_fused, 0);  // relu's producer is the pool
  EXPECT_EQ(find_node(plan.graph(), "c1")->post_pool.window, 2);
  EXPECT_FALSE(find_node(plan.graph(), "c1")->relu_epilogue);
  EXPECT_EQ(find_node(plan.graph(), "c2")->pre_pool.window, 0);
  EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  EXPECT_FALSE(find_node(plan.graph(), "r")->skip);
}

TEST(FusionPasses, DropoutElisionIsExactIdentity) {
  FusionGuard guard;
  Rng rng(51);
  nn::Sequential m("drop");
  m.emplace<nn::Dropout>(0.5f, 99, "d0");
  auto& d = m.emplace<nn::Dense>(8, 5, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d.bias().value, 0.0f, 0.1f);
  m.emplace<nn::Dropout>(0.3f, 100, "d1");
  Tensor x({4, 8});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = forward_with_fusion(m, x, false);
  const Tensor fused = forward_with_fusion(m, x, true);
  testutil::expect_bitwise_equal(fused, unfused, "dropout elision");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().dropout_elided, 2);
  EXPECT_TRUE(find_node(plan.graph(), "d0")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "d1")->skip);
}

TEST(FusionObs, PassCountersAccumulate) {
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const uint64_t plans0 = reg.counter("fusion.plans").value();
  const uint64_t relu0 = reg.counter("fusion.relu_fused").value();
  Rng rng(77);
  nn::Sequential m("obs");
  auto& d = m.emplace<nn::Dense>(6, 4, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  m.emplace<nn::ReLU>("r");
  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().relu_fused, 1);
  EXPECT_EQ(reg.counter("fusion.plans").value(), plans0 + 1);
  EXPECT_EQ(reg.counter("fusion.relu_fused").value(), relu0 + 1);
  reg.set_enabled(was_enabled);
}

// ---------- randomized graph-parity sweep ----------

TEST(FusionParity, RandomizedDigitalGraphSweep) {
  FusionGuard guard;
  int bn_models = 0;
  int64_t rewrites = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool allow_bn : {false, true}) {
      testutil::RandomModelSpec spec;
      spec.seed = seed * 17 + (allow_bn ? 1 : 0);
      spec.allow_batchnorm = allow_bn;
      testutil::RandomModel rm = testutil::make_random_model(spec);
      const Tensor x = testutil::random_input(rm, seed * 31 + 5);
      const std::string what =
          "seed " + std::to_string(spec.seed) + (allow_bn ? " (+bn)" : "");

      const Tensor unfused = forward_with_fusion(rm.model, x, false);
      const Tensor fused = forward_with_fusion(rm.model, x, true);
      if (rm.has_batchnorm) ++bn_models;
      testutil::expect_bitwise_equal(fused, unfused, what);
      // The cached plan re-executes deterministically.
      const Tensor again = forward_with_fusion(rm.model, x, true);
      testutil::expect_bitwise_equal(again, fused, what + " (plan reuse)");

      nn::FusedPlan plan(rm.model);
      rewrites += plan.stats().rewrites();
    }
  }
  EXPECT_GT(bn_models, 0);  // the sweep exercised BN-bearing graphs
  EXPECT_GT(rewrites, 0);   // and the passes rewrote something
}

TEST(FusionParity, CrossbarChipsAreBitwiseExactOnEveryTarget) {
  // Crossbar lowering pools a crossbar conv's output as it is written
  // (post-pool), so fused vs unfused on a chip is bitwise for every target
  // — including the approximate int8 one, which is merely the same
  // approximation on both sides.
  FusionGuard guard;
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  int targets_run = 0;
  int64_t crossbar_post_pools = 0;
  for (const uint64_t seed : {3u, 8u}) {
    testutil::RandomModelSpec spec;
    spec.seed = seed;
    spec.allow_batchnorm = (seed == 8);
    testutil::RandomModel rm = testutil::make_random_model(spec);
    const Tensor x = testutil::random_input(rm, seed + 101, 2);
    for (const exec::Target* t : exec::registered_targets()) {
      if (!t->available()) continue;
      ++targets_run;
      Rng prog(seed + 7);
      nn::Sequential chip = analog::program_to_crossbars(
          rm.model, dev, prog, /*tile=*/32, nullptr, 0, nullptr, t);
      const Tensor unfused = forward_with_fusion(chip, x, false);
      const Tensor fused = forward_with_fusion(chip, x, true);
      testutil::expect_bitwise_equal(fused, unfused,
                                     "target " + t->name() + " seed " +
                                         std::to_string(seed));
      nn::FusedPlan plan(chip);
      EXPECT_EQ(plan.stats().pools_fused, 0) << t->name();
      crossbar_post_pools += plan.stats().post_pools_fused;
    }
  }
  // simd, simd-generic and int8 are always executable.
  EXPECT_GE(targets_run, 6);
  // The sweep exercised the crossbar post-pool write-out.
  EXPECT_GT(crossbar_post_pools, 0);

  // The pinned generic SIMD level preserves parity.
  testutil::RandomModelSpec spec;
  spec.seed = 13;
  spec.allow_batchnorm = false;
  testutil::RandomModel rm = testutil::make_random_model(spec);
  const Tensor x = testutil::random_input(rm, 131, 2);
  Rng prog(19);
  nn::Sequential chip = analog::program_to_crossbars(
      rm.model, dev, prog, /*tile=*/32, nullptr, 0, nullptr,
      &exec::get_target("simd-generic"));
  const Tensor unfused = forward_with_fusion(chip, x, false);
  const Tensor fused = forward_with_fusion(chip, x, true);
  testutil::expect_bitwise_equal(fused, unfused, "pinned generic simd");
}

// ---------- campaign byte-identity ----------

TEST(FusionCampaign, ReportsAreByteIdenticalOnVsOff) {
  FusionGuard guard;
  data::DigitsSpec spec;
  spec.train_count = 10;
  spec.test_count = 40;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(5);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);

  auto run = [&](bool fused) {
    nn::set_fusion_enabled(fused);
    faultsim::CampaignOptions co;
    co.chips = 2;
    co.seed = 9;
    co.batch_size = 32;
    co.tile = 64;
    faultsim::Campaign c(co);
    c.add_model("baseline", model, false);
    c.add_stuck_at_grid({0.02});
    faultsim::CampaignReport r = c.run(ds.test);
    r.wall_s = 0.0;  // the one field that legitimately differs between runs
    return r.to_json();
  };
  const std::string on = run(true);
  const std::string off = run(false);
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace cn
