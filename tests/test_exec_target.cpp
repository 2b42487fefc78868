// The execution-target registry: builtin registrations, lookup and default
// semantics, registration invariants, the lowering seam (a registered custom
// target actually executes the batched path), target selection through the
// campaign config / ChipFarm layers, the int8 lowering envelope, and the
// symmetric int8 quantizer it builds on.
#include "exec/target.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analog/crossbar.h"
#include "analog/quant.h"
#include "core/config.h"
#include "exec_testutil.h"
#include "faultsim/campaign.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "runtime/chip_farm.h"

namespace cn {
namespace {

// What default_target() must resolve to when no set_default_target override
// is live: the validated CORRECTNET_TARGET (how the CI matrix forces a
// target under this very binary), else the builtin default.
std::string ambient_name() {
  const char* env = std::getenv("CORRECTNET_TARGET");
  return (env && *env) ? env : "simd";
}

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

TEST(ExecRegistry, BuiltinsAreRegistered) {
  for (const char* name :
       {"simd", "simd-generic", "simd-avx2", "simd-avx512f", "int8"}) {
    const exec::Target* t = exec::find_target(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_EQ(t->name(), name);
    EXPECT_FALSE(t->description().empty()) << name;
  }
  // Registration order: builtins first, the default family leading.
  auto all = exec::registered_targets();
  ASSERT_GE(all.size(), 5u);
  EXPECT_EQ(all[0]->name(), "simd");
  // The portable members are executable everywhere.
  EXPECT_TRUE(exec::find_target("simd")->available());
  EXPECT_TRUE(exec::find_target("simd-generic")->available());
  EXPECT_TRUE(exec::find_target("int8")->available());
  // Exactness self-description: the float targets honor the bit-exactness
  // contract, int8 is declared approximate.
  EXPECT_TRUE(exec::find_target("simd")->bit_exact());
  EXPECT_TRUE(exec::find_target("simd-generic")->bit_exact());
  EXPECT_FALSE(exec::find_target("int8")->bit_exact());
}

TEST(ExecRegistry, UnknownLookupsFailTheRightWay) {
  EXPECT_EQ(exec::find_target("no-such-target"), nullptr);
  try {
    exec::get_target("no-such-target");
    FAIL() << "get_target must throw on an unknown name";
  } catch (const std::runtime_error& e) {
    // The error must teach: it lists what is registered.
    EXPECT_NE(std::string(e.what()).find("simd"), std::string::npos) << e.what();
  }
}

TEST(ExecRegistry, DefaultTargetPrecedenceAndReset) {
  EXPECT_EQ(exec::default_target().name(), ambient_name());
  exec::set_default_target("simd-generic");
  EXPECT_EQ(exec::default_target().name(), "simd-generic");
  exec::reset_default_target();
  EXPECT_EQ(exec::default_target().name(), ambient_name());
  // A bad override throws and leaves the default untouched.
  EXPECT_THROW(exec::set_default_target("no-such-target"), std::runtime_error);
  EXPECT_EQ(exec::default_target().name(), ambient_name());
}

// A minimal target for registration tests: lowers every tile to a TileExec
// that writes zero currents.
class NullExec : public exec::TileExec {
 public:
  explicit NullExec(int64_t cols) : cols_(cols) {}
  void currents(const float*, int64_t nitems, int64_t, int64_t, float* cur,
                int64_t cis, int64_t ccs, exec::Scratch&) const override {
    for (int64_t i = 0; i < nitems; ++i)
      for (int64_t c = 0; c < cols_; ++c) cur[i * cis + c * ccs] = 0.0f;
  }
  int64_t row_block(bool) const override { return 8; }

 private:
  int64_t cols_;
};

class NullTarget : public exec::Target {
 public:
  explicit NullTarget(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::string description() const override { return "writes zero currents"; }
  bool available() const override { return true; }
  bool bit_exact() const override { return false; }
  std::unique_ptr<exec::TileExec> lower(const exec::TileView& t) const override {
    return std::make_unique<NullExec>(t.cols);
  }

 private:
  std::string name_;
};

TEST(ExecRegistry, DuplicateAndEmptyRegistrationThrow) {
  EXPECT_THROW(exec::register_target(std::make_unique<NullTarget>("simd")),
               std::invalid_argument);
  EXPECT_THROW(exec::register_target(std::make_unique<NullTarget>("")),
               std::invalid_argument);
}

TEST(ExecRegistry, RegisteredTargetDrivesTheBatchedPath) {
  // The lowering seam end to end: a target registered at runtime must be
  // what matmul executes through when an array is built on it. Zero
  // currents -> zero outputs, unmistakably distinct from every real kernel.
  const exec::Target* null_t =
      exec::register_target(std::make_unique<NullTarget>("test-null"));
  ASSERT_EQ(exec::find_target("test-null"), null_t);
  Rng rng(91);
  Tensor w({5, 9});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(92);
  analog::CrossbarArray xbar(w, quiet_dev(), prog, /*tile=*/4, nullptr,
                             nullptr, null_t);
  EXPECT_EQ(xbar.target().name(), "test-null");
  Tensor x({3, 9});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = xbar.matmul(x);
  testutil::expect_bitwise_equal(y, Tensor(y.shape()),
                                 "null-target batched output");
  // The scalar reference is target-independent and stays non-zero.
  Tensor xi({9});
  std::memcpy(xi.data(), x.data(), 9 * sizeof(float));
  const Tensor yv = xbar.matvec(xi);
  double mass = 0.0;
  for (int64_t i = 0; i < yv.size(); ++i) mass += std::abs(yv[i]);
  EXPECT_GT(mass, 0.0);
}

TEST(ExecRegistry, Int8LoweringRejectsTilesBeyondAccumulatorRange) {
  // 2^31 / 127^2 rows is where the int32 accumulator could overflow; the
  // int8 target must refuse to lower such a tile instead of wrapping.
  constexpr int64_t kRows = (int64_t{1} << 31) / (127 * 127) + 1;
  Rng rng(93);
  Tensor w({1, kRows});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(94);
  EXPECT_THROW(analog::CrossbarArray(w, quiet_dev(), prog, /*tile=*/1 << 18,
                                     nullptr, nullptr,
                                     &exec::get_target("int8")),
               std::runtime_error);
  // The same shape lowers fine on the default float targets.
  Rng prog2(94);
  analog::CrossbarArray ok(w, quiet_dev(), prog2, /*tile=*/1 << 18, nullptr,
                           nullptr, &exec::get_target("simd"));
  EXPECT_EQ(ok.num_tiles(), 1);
}

TEST(ExecConfig, CampaignValidatesTargetKey) {
  // A typo'd target fails at campaign construction, before any training or
  // evaluation happens.
  auto bad = core::KeyValueConfig::from_string(
      "stuck.rates = 0.01\ntarget = no-such-target\n");
  EXPECT_THROW(faultsim::campaign_from_config(bad), std::runtime_error);
  // A registered name threads through to the campaign options.
  auto good = core::KeyValueConfig::from_string(
      "stuck.rates = 0.01\ntarget = simd-generic\n");
  faultsim::Campaign c = faultsim::campaign_from_config(good);
  EXPECT_EQ(c.target(), "simd-generic");
  // And a key set that never mentions target leaves it to the process
  // default (empty string in the options).
  auto none = core::KeyValueConfig::from_string("stuck.rates = 0.01\n");
  EXPECT_EQ(faultsim::campaign_from_config(none).target(), "");
}

TEST(ExecFarm, CrossbarFarmResolvesTargetAndFactorFarmRejectsIt) {
  nn::Sequential m{"m"};
  m.emplace<nn::Dense>(6, 3, "fc");
  runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.tile = 8;
  fo.target = "simd-generic";
  runtime::ChipFarm farm(m, quiet_dev(), fo);
  EXPECT_EQ(farm.target_name(), "simd-generic");
  // Empty target = process default, resolved at populate time.
  runtime::ChipFarmOptions fd;
  fd.instances = 2;
  fd.tile = 8;
  runtime::ChipFarm dfarm(m, quiet_dev(), fd);
  EXPECT_EQ(dfarm.target_name(), exec::default_target().name());
  // Unknown names fail at construction.
  runtime::ChipFarmOptions fbad = fo;
  fbad.target = "no-such-target";
  EXPECT_THROW(runtime::ChipFarm(m, quiet_dev(), fbad), std::runtime_error);
  // Factor farms execute digitally: a target makes no sense there.
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.3f};
  EXPECT_THROW(runtime::ChipFarm(m, vm, fo), std::invalid_argument);
  runtime::ChipFarmOptions ff;
  ff.instances = 2;
  runtime::ChipFarm factor(m, vm, ff);
  EXPECT_EQ(factor.target_name(), "");
}

TEST(Int8Quant, SymmetricQuantizerRoundTripsWithinHalfStep) {
  const float x[] = {0.8f, -0.3f, 0.05f, -1.27f, 0.0f, 0.64f};
  constexpr int64_t n = 6;
  int8_t q[n];
  const float scale = analog::quantize_symmetric_int8(x, n, 1, q);
  ASSERT_GT(scale, 0.0f);
  EXPECT_FLOAT_EQ(scale, 1.27f / 127.0f);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GE(q[i], -127);  // -128 stays unused: symmetric range
    EXPECT_LE(q[i], 127);
    EXPECT_LE(std::abs(q[i] * scale - x[i]), scale / 2 + 1e-7f) << i;
  }
  // Strided reads quantize the same logical vector.
  float strided[2 * n];
  for (int64_t i = 0; i < n; ++i) strided[2 * i] = x[i];
  int8_t qs[n];
  const float s2 = analog::quantize_symmetric_int8(strided, n, 2, qs);
  EXPECT_EQ(s2, scale);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(qs[i], q[i]);
  // The all-zero span: scale 0, all codes 0 (callers short-circuit on it).
  const float zeros[3] = {0.0f, 0.0f, 0.0f};
  int8_t qz[3] = {1, 2, 3};
  EXPECT_EQ(analog::quantize_symmetric_int8(zeros, 3, 1, qz), 0.0f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(qz[i], 0);
}

}  // namespace
}  // namespace cn
