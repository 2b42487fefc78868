// Shared helpers for suites that assert the bit-exactness contract between
// execution paths (batched crossbar vs scalar matvec, fused vs unfused
// graphs). The contract is a property of the execution target: under an
// approximate ambient target (the CORRECTNET_TARGET=int8 CI matrix leg)
// those assertions are vacuously out of force, so the tests skip — loudly,
// with the target named — instead of failing. Per-target parity itself is
// proven with explicit targets in tests/test_crossbar_exec.cpp, which runs
// identically under every leg.
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

#include "exec/target.h"
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

inline void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                                 const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch (got "
                                    << got.size() << " elements, want "
                                    << want.size() << ")";
  expect_bitwise_equal(got.data(), want.data(), got.size(), what);
}

}  // namespace cn::testutil

#define CN_SKIP_UNLESS_BIT_EXACT_TARGET()                                  \
  do {                                                                     \
    const cn::exec::Target& cn_ambient = cn::exec::default_target();       \
    if (!cn_ambient.bit_exact())                                           \
      GTEST_SKIP() << "ambient execution target '" << cn_ambient.name()    \
                   << "' is approximate; the bit-exactness contract this " \
                      "test asserts is not in force";                      \
  } while (0)
