// The fused eval plan (nn/fusion.h): per-fold oracles (relu epilogue,
// post-pool, flatten reshape, and the layers that stay their own steps), the
// process-wide knob contract, the randomized parity sweep (fused vs unfused,
// bitwise with and without batchnorm, on the digital path and on crossbar
// chips at every simd ISA level), the compensated CorrectNet chip,
// and campaign-report byte-identity with fusion forced on vs off.
#include "nn/fusion.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "core/compensation.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "faultsim/campaign.h"
#include "graph_testutil.h"
#include "models/lenet.h"
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

// The plan step executing the layer labelled `label` (nullptr when that
// layer was folded into another step).
const nn::Step* find_step(const nn::FusedPlan& plan, const std::string& label) {
  for (const nn::Step& s : plan.steps())
    if (s.layer->label() == label) return &s;
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

// ---------- plan construction ----------

TEST(FusionPlan, TrainForwardBypassesFusionEntirely) {
  // With fusion forced on, a train-mode forward must still run the plain
  // layer loop (live dropout, batch statistics) and never build a plan.
  FusionGuard guard;
  nn::set_fusion_enabled(true);
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const uint64_t plans0 = reg.counter("fusion.plans").value();
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
  EXPECT_EQ(reg.counter("fusion.plans").value(), plans0);
  reg.set_enabled(was_enabled);
}

TEST(FusionPlan, ReluFoldsIntoAnalogStepsAndFlattenReshapes) {
  FusionGuard guard;
  Rng rng(21);
  nn::Sequential m("relu");
  auto& conv = m.emplace<nn::Conv2D>(1, 4, 3, 1, 0, 10, 10, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
  m.emplace<nn::ReLU>("r1");
  m.emplace<nn::Flatten>("flat");
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
  ASSERT_EQ(plan.steps().size(), 3u);  // conv+r1, flat, fc+r2
  EXPECT_EQ(find_step(plan, "r1"), nullptr);
  EXPECT_EQ(find_step(plan, "r2"), nullptr);
  EXPECT_TRUE(find_step(plan, "conv")->relu);
  EXPECT_TRUE(find_step(plan, "fc")->relu);
  EXPECT_TRUE(find_step(plan, "flat")->reshape);
}

TEST(FusionPlan, PostPoolFoldIsBitwiseExact) {
  // A pool after a conv pools inside the conv kernel; conv→relu→pool
  // collapses into one step, the relu applied before pooling.
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
    ASSERT_EQ(fused.dim(2), 4);  // pooled geometry survives the fold
    testutil::expect_bitwise_equal(
        fused, unfused, use_max ? "post-maxpool fusion" : "post-avgpool fusion");

    nn::FusedPlan plan(m);
    EXPECT_EQ(plan.stats().post_pools_fused, 1);
    ASSERT_EQ(plan.steps().size(), 1u);
    const nn::Step& s = plan.steps().front();
    EXPECT_TRUE(s.relu);
    EXPECT_EQ(s.post_pool.window, 2);
    EXPECT_EQ(s.post_pool.kind,
              use_max ? nn::PrePool::Kind::kMax : nn::PrePool::Kind::kAvg);
  }
}

TEST(FusionPlan, PoolBetweenTwoConvsFoldsUpstreamAndLaterReluStaysAlone) {
  // conv1→pool→relu→conv2: the pool folds into conv1's write-out, and the
  // relu after it stays its own step (folding it into conv1 would reorder
  // relu before pooling).
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
  EXPECT_EQ(plan.stats().relu_fused, 0);
  ASSERT_EQ(plan.steps().size(), 3u);  // c1+pool, r, c2
  EXPECT_EQ(find_step(plan, "c1")->post_pool.window, 2);
  EXPECT_FALSE(find_step(plan, "c1")->relu);
  EXPECT_EQ(find_step(plan, "pool"), nullptr);
  EXPECT_NE(find_step(plan, "r"), nullptr);
}

TEST(FusionPlan, UnfoldableLayersRunAsTheirOwnSteps) {
  // A pool with no conv before it, a relu after batchnorm (not analog), and
  // eval-mode dropout each execute as their own step, bitwise equal to the
  // plain loop.
  FusionGuard guard;
  Rng rng(31);
  nn::Sequential m("standalone");
  m.emplace<nn::MaxPool2D>(2, "pool");
  auto& conv = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
  auto& bn = m.emplace<nn::BatchNorm2D>(3, 0.9f, 1e-5f, "bn");
  rng.fill_normal(bn.gamma().value, 1.0f, 0.2f);
  m.emplace<nn::ReLU>("r");
  m.emplace<nn::Dropout>(0.5f, 99, "d");
  m.emplace<nn::AvgPool2D>(2, "pool2");
  Tensor x({2, 1, 12, 12});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = forward_with_fusion(m, x, false);
  const Tensor fused = forward_with_fusion(m, x, true);
  testutil::expect_bitwise_equal(fused, unfused, "standalone steps");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().rewrites(), 0);
  EXPECT_EQ(plan.steps().size(), static_cast<size_t>(m.num_layers()));
}

TEST(FusionObs, FoldCountersAccumulate) {
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

// ---------- randomized parity sweep ----------

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
  EXPECT_GT(rewrites, 0);   // and the plan folded something
}

TEST(FusionParity, CrossbarChipsAreBitwiseExactOnEveryLevel) {
  // The plan pools a crossbar conv's output as it is written (post-pool),
  // and fused vs unfused on a chip is bitwise at every simd level.
  FusionGuard guard;
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  int levels_run = 0;
  int64_t crossbar_post_pools = 0;
  for (const uint64_t seed : {3u, 8u}) {
    testutil::RandomModelSpec spec;
    spec.seed = seed;
    spec.allow_batchnorm = (seed == 8);
    testutil::RandomModel rm = testutil::make_random_model(spec);
    const Tensor x = testutil::random_input(rm, seed + 101, 2);
    levels_run += testutil::for_each_level([&](const std::string& level) {
      Rng prog(seed + 7);
      nn::Sequential chip =
          analog::program_to_crossbars(rm.model, dev, prog, /*tile=*/32);
      const Tensor unfused = forward_with_fusion(chip, x, false);
      const Tensor fused = forward_with_fusion(chip, x, true);
      testutil::expect_bitwise_equal(fused, unfused,
                                     "level " + level + " seed " +
                                         std::to_string(seed));
      nn::FusedPlan plan(chip);
      crossbar_post_pools += plan.stats().post_pools_fused;
    });
  }
  // Unpinned and generic always run, at two seeds each.
  EXPECT_GE(levels_run, 4);
  // The sweep exercised the crossbar post-pool write-out.
  EXPECT_GT(crossbar_post_pools, 0);
}

TEST(FusionParity, CompensatedChipIsBitwiseExactOnEveryLevel) {
  // The CorrectNet chip: conv1 and conv2 of LeNet-5 wrapped in compensation
  // (§III-B), their bases on the crossbar. relu1/relu2 fold into the
  // compensated steps (the default forward_relu clamp), and fused vs
  // unfused stays bitwise with read noise off and on.
  FusionGuard guard;
  Rng init(71);
  const nn::Sequential lenet = models::lenet5(1, 28, 10, init);
  core::CompensationPlan comp;
  comp.entries = {{0, 4}, {3, 4}};  // conv1, conv2
  Rng comp_rng(72);
  nn::Sequential model = core::with_compensation(lenet, comp, comp_rng);
  Rng xr(73);
  Tensor x({3, 1, 28, 28});
  xr.fill_normal(x, 0.0f, 1.0f);

  auto expect_folds = [](nn::Sequential& m, const std::string& what) {
    nn::FusedPlan plan(m);
    for (const char* conv : {"conv1+comp", "conv2+comp"}) {
      const nn::Step* s = find_step(plan, conv);
      ASSERT_NE(s, nullptr) << what << " " << conv;
      EXPECT_EQ(s->layer->kind(), "compensated_conv2d") << what;
      EXPECT_TRUE(s->relu) << what << " " << conv;
    }
    EXPECT_EQ(find_step(plan, "relu1"), nullptr) << what;
    EXPECT_EQ(find_step(plan, "relu2"), nullptr) << what;
  };

  expect_folds(model, "digital");
  testutil::expect_bitwise_equal(forward_with_fusion(model, x, true),
                                 forward_with_fusion(model, x, false),
                                 "digital compensated model");

  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  int levels_run = 0;
  for (const float read_sigma : {0.0f, 0.05f}) {
    dev.readout.read_sigma = read_sigma;
    levels_run += testutil::for_each_level([&](const std::string& level) {
      const std::string what = "level " + level + " read_sigma " +
                               std::to_string(read_sigma);
      Rng prog(74);
      nn::Sequential chip =
          analog::program_to_crossbars(model, dev, prog, /*tile=*/64);
      expect_folds(chip, what);
      analog::set_read_seeds(chip, 75);
      const Tensor unfused = forward_with_fusion(chip, x, false);
      analog::set_read_seeds(chip, 75);
      const Tensor fused = forward_with_fusion(chip, x, true);
      testutil::expect_bitwise_equal(fused, unfused, what);
    });
  }
  EXPECT_GE(levels_run, 4);  // unpinned and generic, noise off and on
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
