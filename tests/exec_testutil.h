// Shared helpers for suites that assert the bit-exactness contract between
// execution paths (batched crossbar vs scalar matvec, fused vs unfused
// graphs) and across the simd ISA levels (exec/simd.h). for_each_level runs
// a check once unpinned and once at every level the host can run pinned, so
// a sweep proves the contract at every level in one tier-1 pass.
//
// expect_bitwise_equal is the shared parity assertion: one failure per call
// with the first mismatching index, both values, the magnitude of the
// difference, and the mismatch count — instead of a per-element ASSERT_EQ
// spray.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "exec/simd.h"
#include "tensor/tensor.h"

namespace cn::testutil {

// Sign-adjusted integer image of a float: monotone in the IEEE-754 value
// order (with -0 mapping next to +0), so ulp distance is plain subtraction.
inline int64_t float_ordinal(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? static_cast<int64_t>(i)
                : -static_cast<int64_t>(i & 0x7FFFFFFF);
}

inline int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<int64_t>::max();
  const int64_t d = float_ordinal(a) - float_ordinal(b);
  return d < 0 ? -d : d;
}

// Asserts got[i] and want[i] carry identical bit patterns for every i
// (strictly stronger than ==: a +0/-0 split fails, identical NaNs pass).
// One failure per call, carrying the diff geometry.
inline void expect_bitwise_equal(const float* got, const float* want,
                                 int64_t n, const std::string& what) {
  int64_t first = -1, mismatches = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      if (first < 0) first = i;
      ++mismatches;
    }
  }
  if (mismatches == 0) return;
  ADD_FAILURE() << what << ": " << mismatches << "/" << n
                << " elements differ; first at [" << first << "]: got "
                << got[first] << ", want " << want[first] << " (|diff| "
                << std::abs(static_cast<double>(got[first]) - want[first])
                << ", " << ulp_distance(got[first], want[first]) << " ulps)";
}

// Pins the simd lowering level for its scope (-1 = unpinned) and unpins on
// exit, so a failed assertion never leaks a pin into the next test.
struct PinnedLevel {
  explicit PinnedLevel(int level) { exec::simd::pin_level(level); }
  ~PinnedLevel() { exec::simd::pin_level(-1); }
  PinnedLevel(const PinnedLevel&) = delete;
  PinnedLevel& operator=(const PinnedLevel&) = delete;
};

// Calls fn(name) with tiles lowering unpinned (the host's widest level),
// then pinned at every level from generic up to max_level(). Returns the
// number of runs: always >= 2, since generic runs everywhere.
template <class Fn>
int for_each_level(Fn&& fn) {
  int runs = 0;
  for (int level = -1; level <= exec::simd::max_level(); ++level, ++runs) {
    PinnedLevel pin(level);
    fn(std::string(level < 0 ? "unpinned" : exec::simd::level_name(level)));
  }
  return runs;
}

inline void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                                 const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch (got "
                                    << got.size() << " elements, want "
                                    << want.size() << ")";
  expect_bitwise_equal(got.data(), want.data(), got.size(), what);
}

}  // namespace cn::testutil
