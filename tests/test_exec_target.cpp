// The execution-target table: its four rows, lookup and default semantics,
// arrays reporting the row they were built on, target selection through the
// campaign config / ChipFarm layers.
#include "exec/target.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analog/crossbar.h"
#include "core/config.h"
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
  // The table is exactly the simd family, the default leading.
  const std::vector<std::string> expected = {"simd", "simd-generic",
                                             "simd-avx2", "simd-avx512f"};
  const auto& all = exec::registered_targets();
  ASSERT_EQ(all.size(), expected.size());
  Rng rng(91);
  Tensor w({5, 9});
  rng.fill_normal(w, 0.0f, 0.5f);
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string& name = expected[i];
    EXPECT_EQ(all[i]->name(), name);
    EXPECT_EQ(exec::find_target(name), all[i]) << name;
    EXPECT_FALSE(all[i]->description().empty()) << name;
    if (!all[i]->available()) continue;
    // An array reports the target it was built on.
    Rng prog(92);
    analog::CrossbarArray xbar(w, quiet_dev(), prog, /*tile=*/4, nullptr,
                               nullptr, &exec::get_target(name));
    EXPECT_EQ(xbar.target().name(), name);
  }
  // The portable members are executable everywhere.
  EXPECT_TRUE(exec::find_target("simd")->available());
  EXPECT_TRUE(exec::find_target("simd-generic")->available());
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
  EXPECT_EQ(c.options().target, "simd-generic");
  // And a key set that never mentions target leaves it to the process
  // default (empty string in the options).
  auto none = core::KeyValueConfig::from_string("stuck.rates = 0.01\n");
  EXPECT_EQ(faultsim::campaign_from_config(none).options().target, "");
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

}  // namespace
}  // namespace cn
