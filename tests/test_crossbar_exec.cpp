// Crossbar-backed execution of whole models, the equivalence between the
// device-level substrate and the fast factor-injection path, and the
// per-ISA-level parity of the batched matmul path vs the per-column matvec
// loop across every periphery configuration and fault model: every simd
// level must match bit for bit.
#include "analog/crossbar_layers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "core/montecarlo.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "nn/activations.h"
#include "nn/fusion.h"
#include "nn/pooling.h"
#include "tensor/ops.h"

namespace cn::analog {
namespace {

RramDeviceParams ideal() {
  RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

// For every simd level (testutil::for_each_level), builds an array from
// (dev, faults) lowered at that level and asserts y == matvec row by row for
// matmul and matmul_cols on a random batch. Each level's array is programmed
// from a freshly re-seeded rng, so all levels execute identical
// conductances; matvec itself is level-independent. With a `noise_seed`
// every path reads under it, batch row n as read 5 + n.
void expect_paths_bit_identical(const RramDeviceParams& dev,
                                const FaultList* faults, uint64_t seed,
                                const std::string& what,
                                std::optional<uint64_t> noise_seed = std::nullopt) {
  auto reads = [&](uint64_t first) -> Reads {
    if (!noise_seed) return std::nullopt;
    return ReadKey{*noise_seed, first};
  };
  constexpr int64_t kIn = 23, kOut = 11, kBatch = 6;
  Rng rng(seed);
  Tensor w({kOut, kIn});
  rng.fill_normal(w, 0.0f, 0.5f);
  Tensor x({kBatch, kIn});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor x_cm({kIn, kBatch});
  for (int64_t n = 0; n < kBatch; ++n)
    for (int64_t k = 0; k < kIn; ++k) x_cm[k * kBatch + n] = x[n * kIn + k];
  const int levels_run = testutil::for_each_level([&](const std::string& level) {
    Rng prog(seed + 1);
    CrossbarArray xbar(w, dev, prog, /*tile=*/8, faults);  // multiple tiles both ways
    Tensor y_batch = xbar.matmul(x, reads(5));
    // matmul_cols returns (out, batch); transposed back to matmul's layout.
    Tensor y_cols = transpose(xbar.matmul_cols(x_cm, reads(5)));
    Tensor xi({kIn});
    for (int64_t n = 0; n < kBatch; ++n) {
      std::copy(x.data() + n * kIn, x.data() + (n + 1) * kIn, xi.data());
      Tensor yi = xbar.matvec(xi, reads(5 + static_cast<uint64_t>(n)));
      const std::string row = what + " [" + level + "] row " +
                              std::to_string(n);
      testutil::expect_bitwise_equal(y_batch.data() + n * kOut, yi.data(),
                                     kOut, row + " matmul");
      testutil::expect_bitwise_equal(y_cols.data() + n * kOut, yi.data(),
                                     kOut, row + " matmul_cols");
    }
  });
  // Unpinned and generic are always executable.
  ASSERT_GE(levels_run, 2) << what;
}

TEST(CrossbarExec, PeripheryCombosKeepBatchedAndMatvecBitIdentical) {
  // The periphery knobs, alone and combined — these paths were only covered
  // by the single all-on configuration in test_runtime before.
  struct Combo {
    const char* name;
    int adc_bits, dac_bits, levels;
    float program_sigma, read_sigma;
    bool keyed = false;  // reads carry a noise key
  };
  const Combo combos[] = {
      {"adc only", 6, 0, 0, 0.0f, 0.0f},
      {"dac only", 0, 5, 0, 0.0f, 0.0f},
      {"adc+dac", 4, 4, 0, 0.0f, 0.0f},
      {"adc+variation", 8, 0, 0, 0.25f, 0.0f},
      {"dac+levels", 0, 6, 8, 0.0f, 0.0f},
      {"adc+dac+levels+variation", 6, 6, 16, 0.15f, 0.0f},
      // read_sigma configured but no key handed out: the noise gate in
      // finish_row must stay off on both paths.
      {"read_sigma without key", 6, 4, 0, 0.1f, 0.2f},
      {"read noise", 0, 0, 0, 0.0f, 0.1f, true},
      {"read noise+adc+dac+levels+variation", 6, 6, 16, 0.15f, 0.1f, true},
  };
  uint64_t seed = 100;
  for (const Combo& c : combos) {
    RramDeviceParams dev = ideal();
    dev.readout.adc_bits = c.adc_bits;
    dev.readout.dac_bits = c.dac_bits;
    dev.conductance_levels = c.levels;
    dev.program_sigma = c.program_sigma;
    dev.readout.read_sigma = c.read_sigma;
    seed += 7;
    expect_paths_bit_identical(dev, nullptr, seed, c.name,
                               c.keyed ? std::optional<uint64_t>(seed + 3) : std::nullopt);
  }
}

TEST(CrossbarExec, EveryFaultModelKeepsBatchedAndMatvecBitIdentical) {
  // Fault injection is a construction-time conductance transform, so the
  // bit-exactness contract must survive every model — alone, composed, and
  // stacked on the full periphery.
  using faultsim::FaultSpec;
  auto run = [](const FaultSpec& spec, const RramDeviceParams& dev,
                uint64_t seed) {
    const FaultList list = spec.list();
    expect_paths_bit_identical(dev, &list, seed, spec.kind);
  };
  RramDeviceParams plain = ideal();
  plain.program_sigma = 0.2f;
  run(faultsim::stuck_at(0.05), plain, 200);
  run(faultsim::drift(100.0), plain, 210);
  run(faultsim::ir_drop(0.1), plain, 220);
  run(faultsim::thermal(420.0), plain, 230);

  FaultSpec combined;
  combined.kind = "combined";
  combined.models.push_back(std::make_shared<faultsim::StuckAtFault>(0.02, 0.02));
  combined.models.push_back(std::make_shared<faultsim::DriftFault>(50.0));
  combined.models.push_back(std::make_shared<faultsim::IrDropFault>(0.05, 0.05));
  combined.models.push_back(std::make_shared<faultsim::ThermalFault>(380.0));
  RramDeviceParams full = ideal();
  full.program_sigma = 0.15f;
  full.conductance_levels = 16;
  full.readout.adc_bits = 8;
  full.readout.dac_bits = 6;
  run(combined, full, 240);
}

// Whether the host CPU can execute AVX-512F code from this build (the same
// condition the simd family's level detection applies).
TEST(CrossbarExec, ForcedSimdDispatchLevelsAreBitIdentical) {
  // Unpinned tiles lower at the widest ISA the host supports, so their own
  // parity only ever proves that one level. Run every pinned level on the
  // same inputs and conductances: each must reproduce the per-column matvec
  // loop bit for bit (fp-contract stays off in the SIMD variants, so there
  // is no FMA to round differently).
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  dev.conductance_levels = 16;
  dev.readout.adc_bits = 8;
  constexpr int64_t kIn = 37, kOut = 13, kBatch = 9;  // odd sizes: tail lanes
  Rng rng(400);
  Tensor w({kOut, kIn});
  rng.fill_normal(w, 0.0f, 0.5f);
  Tensor x({kBatch, kIn});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor x_cm({kIn, kBatch});
  for (int64_t n = 0; n < kBatch; ++n)
    for (int64_t k = 0; k < kIn; ++k) x_cm[k * kBatch + n] = x[n * kIn + k];

  const int tested = testutil::for_each_level([&](const std::string& name) {
    Rng prog(401);  // identical conductances on every level
    CrossbarArray xbar(w, dev, prog, /*tile=*/8);
    const Tensor y_batch = xbar.matmul(x);
    const Tensor y_cols = transpose(xbar.matmul_cols(x_cm));  // (batch, out)
    Tensor xi({kIn});
    for (int64_t n = 0; n < kBatch; ++n) {
      // Reference: the scalar per-column loop (level-independent).
      std::copy(x.data() + n * kIn, x.data() + (n + 1) * kIn, xi.data());
      const Tensor ref = xbar.matvec(xi);
      const std::string row = name + " row " + std::to_string(n);
      testutil::expect_bitwise_equal(y_batch.data() + n * kOut, ref.data(),
                                     kOut, row + " matmul");
      testutil::expect_bitwise_equal(y_cols.data() + n * kOut, ref.data(),
                                     kOut, row + " matmul_cols");
    }
  });
  EXPECT_GE(tested, 2);  // unpinned and generic always run
}

TEST(CrossbarExec, ReadNoisePathsAreSeedDeterministic) {
  // Parity of the paths under noise is pinned above; here: a read key
  // reproduces its output, and a different seed changes it.
  RramDeviceParams dev = ideal();
  dev.readout.read_sigma = 0.1f;
  Rng rng(300);
  Tensor w({9, 17});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(301);
  CrossbarArray xbar(w, dev, prog, 8);
  Tensor x({17});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = xbar.matvec(x, ReadKey{77, 3});
  testutil::expect_bitwise_equal(y, xbar.matvec(x, ReadKey{77, 3}), "same key");
  const Tensor other = xbar.matvec(x, ReadKey{78, 3});
  double diff = 0.0;
  for (int64_t i = 0; i < y.size(); ++i)
    diff += std::abs(static_cast<double>(y[i]) - other[i]);
  EXPECT_GT(diff, 0.0);
}

// ---------- CrossbarConv2D: pixel-lane batched path == per-column matvec ----

struct ConvCase {
  const char* name;
  int64_t in_c, out_c, k, stride, pad, hw;  // square input, square kernel
};

// Output pixels per image P = out_h * out_w, chosen around the kernels'
// lane widths (2 / 4 / 16): 1 and 9 are all tail, 100 is 6 full AVX-512
// blocks plus a 4-item tail (LeNet's conv2 shape), 49 mixes strides.
const ConvCase kConvCases[] = {
    {"P=1", 2, 5, 3, 1, 0, 3},
    {"P=9", 3, 7, 3, 1, 0, 5},
    {"P=100 lenet-conv2", 6, 16, 5, 1, 0, 14},
    {"P=49 stride 2", 2, 6, 3, 2, 1, 14},
};

nn::Conv2D make_conv(const ConvCase& cc, uint64_t seed) {
  nn::Conv2D conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad, cc.hw, cc.hw, "conv");
  Rng rng(seed);
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.1f);
  return conv;
}

Tensor conv_input(const ConvCase& cc, uint64_t seed, int64_t batch = 2) {
  Tensor x({batch, cc.in_c, cc.hw, cc.hw});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

// At every simd level (testutil::for_each_level): a CrossbarConv2D's
// batched forward (pixel lanes, bitline-major readout) must equal its own
// per-column matvec forward bit for bit, with and without the ReLU epilogue,
// quiet and with read noise keyed by a read seed. `tile` below K2 and out_c
// splits the array into several row tiles and column groups.
void expect_conv_paths_bit_identical(const ConvCase& cc, const RramDeviceParams& dev,
                                     const FaultList* faults,
                                     const remap::RemapParams* remap,
                                     uint64_t seed, int64_t tile,
                                     const std::string& what) {
  const nn::Conv2D conv = make_conv(cc, seed);
  const Tensor x = conv_input(cc, seed + 1);
  RramDeviceParams noisy = dev;
  noisy.readout.read_sigma = 0.1f;
  const int levels_run = testutil::for_each_level([&](const std::string& level) {
    for (const bool keyed : {false, true}) {
      Rng prog(seed + 2);
      CrossbarConv2D xc(conv, keyed ? noisy : dev, prog, tile, faults, remap);
      // Each path starts at read 0: the relu forward reads the next N·P.
      if (keyed) xc.set_read_seed(seed + 3);
      const Tensor batched = xc.forward(x, false);
      const Tensor batched_relu = xc.forward_relu(x);
      xc.set_batched(false);
      if (keyed) xc.set_read_seed(seed + 3);
      const std::string tag = what + " " + cc.name + " [" + level + "]" +
                              (keyed ? " read noise" : "");
      testutil::expect_bitwise_equal(batched, xc.forward(x, false), tag);
      testutil::expect_bitwise_equal(batched_relu, xc.forward_relu(x), tag + " relu");
    }
  });
  // Unpinned and generic are always executable.
  ASSERT_GE(levels_run, 2) << what;
}

TEST(CrossbarConvParity, PixelCountsAroundTheLaneWidth) {
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  uint64_t seed = 1000;
  for (const ConvCase& cc : kConvCases) {
    expect_conv_paths_bit_identical(cc, dev, nullptr, nullptr, seed += 10,
                                    /*tile=*/128, "one tile");
    // K2 > tile (several row tiles) and out_c > tile (several column groups).
    expect_conv_paths_bit_identical(cc, dev, nullptr, nullptr, seed += 10,
                                    /*tile=*/4, "tiled");
  }
}

TEST(CrossbarConvParity, EveryFaultModelWithRemapOnAndOff) {
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.15f;
  const faultsim::FaultSpec specs[] = {faultsim::stuck_at(0.05), faultsim::drift(100.0),
                                       faultsim::ir_drop(0.1), faultsim::thermal(420.0)};
  remap::RemapParams remap_on;
  remap_on.enabled = true;
  const ConvCase& cc = kConvCases[2];
  uint64_t seed = 2000;
  for (const faultsim::FaultSpec& spec : specs) {
    const FaultList list = spec.list();
    expect_conv_paths_bit_identical(cc, dev, &list, nullptr, seed += 10, /*tile=*/64,
                                    spec.kind + " remap off");
    expect_conv_paths_bit_identical(cc, dev, &list, &remap_on, seed += 10, /*tile=*/64,
                                    spec.kind + " remap on");
  }
}

TEST(CrossbarConvParity, AdcAndDacPeriphery) {
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.15f;
  dev.conductance_levels = 16;
  dev.readout.adc_bits = 6;
  dev.readout.dac_bits = 5;
  uint64_t seed = 3000;
  for (const ConvCase& cc : kConvCases)
    expect_conv_paths_bit_identical(cc, dev, nullptr, nullptr, seed += 10, /*tile=*/8,
                                    "adc+dac");
}

TEST(CrossbarConvParity, PostPoolFusionMatchesTheUnfusedPlan) {
  // conv -> relu -> pool on a crossbar chip: the fused plan pools each image
  // plane inside the crossbar conv's write-out and must equal the plain
  // layer loop bit for bit, for max and avg pooling.
  struct FusionReset {
    ~FusionReset() { nn::reset_fusion_enabled(); }
  } reset;
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  const ConvCase cc{"P=100", 6, 16, 5, 1, 0, 14};
  const nn::Conv2D conv = make_conv(cc, 5000);
  const Tensor x = conv_input(cc, 5001, /*batch=*/3);
  for (const bool avg : {false, true}) {
    testutil::for_each_level([&](const std::string& level) {
      Rng prog(5002);
      nn::Sequential chip("chip");
      chip.add(std::make_unique<CrossbarConv2D>(conv, dev, prog, /*tile=*/64));
      chip.add(std::make_unique<nn::ReLU>());
      if (avg)
        chip.add(std::make_unique<nn::AvgPool2D>(2));
      else
        chip.add(std::make_unique<nn::MaxPool2D>(2));
      nn::FusedPlan plan(chip);
      EXPECT_EQ(plan.stats().post_pools_fused, 1) << level;
      EXPECT_EQ(plan.stats().relu_fused, 1) << level;
      nn::set_fusion_enabled(false);
      const Tensor unfused = chip.forward(x, false);
      const Tensor fused = plan.execute(x);
      testutil::expect_bitwise_equal(fused, unfused,
                                     std::string(avg ? "avg" : "max") + " [" +
                                         level + "]");
    });
  }
}

TEST(CrossbarDense, IdealMatchesDigitalLayer) {
  Rng rng(1);
  nn::Dense d(6, 4, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.5f);
  rng.fill_normal(d.bias().value, 0.0f, 0.2f);
  Rng prog(2);
  CrossbarDense xd(d, ideal(), prog);
  Tensor x({3, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_ref = d.forward(x, false);
  Tensor y_xbar = xd.forward(x, false);
  for (int64_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(y_xbar[i], y_ref[i], 1e-3f);
}

TEST(CrossbarConv2D, IdealMatchesDigitalLayer) {
  Rng rng(3);
  nn::Conv2D c(2, 4, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(c.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c.bias().value, 0.0f, 0.1f);
  Rng prog(4);
  CrossbarConv2D xc(c, ideal(), prog);
  Tensor x({2, 2, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_ref = c.forward(x, false);
  Tensor y_xbar = xc.forward(x, false);
  ASSERT_EQ(y_ref.shape(), y_xbar.shape());
  for (int64_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(y_xbar[i], y_ref[i], 2e-3f);
}

TEST(CrossbarLayers, BackwardThrows) {
  Rng rng(5);
  nn::Dense d(2, 2, "fc");
  Rng prog(6);
  CrossbarDense xd(d, ideal(), prog);
  xd.forward(Tensor({1, 2}), false);
  EXPECT_THROW(xd.backward(Tensor({1, 2})), std::logic_error);
}

TEST(ProgramToCrossbars, WholeModelIdealAccuracyMatches) {
  data::DigitsSpec spec;
  spec.train_count = 400;
  spec.test_count = 60;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(7);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  core::train(m, ds.train, ds.test, cfg);

  Rng prog(8);
  nn::Sequential xm = program_to_crossbars(m, ideal(), prog);
  const float acc_ref = core::evaluate(m, ds.test);
  const float acc_xbar = core::evaluate(xm, ds.test, /*batch=*/20);
  // Every simd level is bit-exact, so the ideal device flips no logits.
  EXPECT_NEAR(acc_xbar, acc_ref, 1e-6f);
}

TEST(ProgramToCrossbars, VariationDegradesLikeFactorModel) {
  // The device-level programming variation and the layer-level factor model
  // must produce accuracy drops of the same order at matched sigma.
  data::DigitsSpec spec;
  spec.train_count = 400;
  spec.test_count = 60;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(9);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  core::train(m, ds.train, ds.test, cfg);

  const float sigma = 0.4f;
  // Factor path (paper Eq. 1-2), a few chips.
  VariationModel vm{VariationKind::kLognormal, sigma};
  core::McOptions mc;
  mc.samples = 4;
  core::McResult factor = core::mc_accuracy(m, ds.test, vm, mc);
  // Device path, a few programmed chips.
  RramDeviceParams dev = ideal();
  dev.program_sigma = sigma;
  double dev_acc = 0.0;
  for (int chip = 0; chip < 4; ++chip) {
    Rng prog(100 + static_cast<uint64_t>(chip));
    nn::Sequential xm = program_to_crossbars(m, dev, prog);
    dev_acc += core::evaluate(xm, ds.test, 20);
  }
  dev_acc /= 4.0;
  // Same ballpark (both well below clean, within 20 points of each other).
  const float clean = core::evaluate(m, ds.test);
  EXPECT_LT(dev_acc, clean);
  EXPECT_LT(factor.mean, clean);
  EXPECT_NEAR(dev_acc, factor.mean, 0.25);
}

TEST(ProgramToCrossbars, NonAnalogLayersPreserved) {
  Rng rng(11);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  Rng prog(12);
  nn::Sequential xm = program_to_crossbars(m, ideal(), prog);
  ASSERT_EQ(xm.num_layers(), m.num_layers());
  EXPECT_EQ(xm.layer(0).kind(), "crossbar_conv2d");
  EXPECT_EQ(xm.layer(1).kind(), "relu");
  EXPECT_EQ(xm.layer(7).kind(), "crossbar_dense");
}

}  // namespace
}  // namespace cn::analog
