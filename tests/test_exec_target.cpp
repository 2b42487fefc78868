// The simd lowering level (exec/simd.h): cpuid decides the widest level, one
// pin_level seam overrides it for parity sweeps, and arrays keep the level
// they were lowered at.
#include "exec/simd.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "analog/crossbar.h"
#include "exec_testutil.h"

namespace cn {
namespace {

int cpuid_level() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  if (__builtin_cpu_supports("avx512f")) return 2;
  if (__builtin_cpu_supports("avx2")) return 1;
#endif
  return 0;
}

analog::CrossbarArray small_array() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  Rng rng(91);
  Tensor w({5, 9});
  rng.fill_normal(w, 0.0f, 0.5f);
  return analog::CrossbarArray(w, dev, rng, /*tile=*/4);
}

TEST(SimdLevel, MaxLevelMatchesCpuid) {
  EXPECT_EQ(exec::simd::max_level(), cpuid_level());
  // Unpinned, tiles lower at the widest level.
  EXPECT_EQ(exec::simd::level(), exec::simd::max_level());
}

TEST(SimdLevel, PinAndUnpin) {
  for (int level = 0; level <= exec::simd::max_level(); ++level) {
    exec::simd::pin_level(level);
    EXPECT_EQ(exec::simd::level(), level);
  }
  exec::simd::pin_level(-1);
  EXPECT_EQ(exec::simd::level(), exec::simd::max_level());
}

TEST(SimdLevel, UnavailableLevelsThrowAndKeepThePin) {
  testutil::PinnedLevel pin(0);
  for (const int bad : {-2, exec::simd::max_level() + 1, 3})
    EXPECT_THROW(exec::simd::pin_level(bad), std::invalid_argument) << bad;
  EXPECT_EQ(exec::simd::level(), 0);
}

TEST(SimdLevel, ArrayLowersAtThePinnedLevelAndKeepsIt) {
  for (int level = 0; level <= exec::simd::max_level(); ++level) {
    exec::simd::pin_level(level);
    const analog::CrossbarArray xbar = small_array();
    exec::simd::pin_level(-1);
    // A later unpin does not re-lower an existing array.
    EXPECT_EQ(xbar.level(), level);
  }
  EXPECT_EQ(small_array().level(), exec::simd::max_level());
}

}  // namespace
}  // namespace cn
