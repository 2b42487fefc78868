#include "obs/build_info.h"

#include <cstdio>

#include "exec/target.h"

namespace cn::obs {

namespace {

std::string detect_compiler() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string detect_simd() {
  // The same detection the "simd" target lowers with, so /statusz
  // reports the ISA the kernels will actually run.
  switch (exec::simd::max_level()) {
    case 2: return "avx512f";
    case 1: return "avx2";
  }
  return "generic";
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
#ifdef CN_GIT_SHA
    b.git_sha = CN_GIT_SHA;
#else
    b.git_sha = "unknown";
#endif
#ifdef CN_BUILD_TYPE
    b.build_type = CN_BUILD_TYPE;
#else
    b.build_type = "unknown";
#endif
    if (b.git_sha.empty()) b.git_sha = "unknown";
    if (b.build_type.empty()) b.build_type = "unknown";
    b.compiler = detect_compiler();
    b.simd = detect_simd();
    return b;
  }();
  return info;
}

std::string build_info_line() {
  const BuildInfo& b = build_info();
  return "correctnet " + b.git_sha + " (" + b.build_type + ", " + b.compiler +
         ", simd " + b.simd + ")";
}

}  // namespace cn::obs
