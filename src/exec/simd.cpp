// The simd kernel family behind exec::TileExec: register-blocked current
// kernels at three ISA levels (generic / avx2 / avx512f). Each level has two
// kernel shapes, picked by the input layout: bitline lanes for row-major
// (dense) batches and pixel lanes for item-contiguous (im2col) batches,
// whose tiles are often only a few bitlines wide.
//
// Tiles run the widest level the host supports (simd::level()); the parity
// suites pin each level in turn to prove all variants bit-identical.
//
// This translation unit must stay contraction-free (see the avx attribute
// and src/CMakeLists.txt): a fused multiply-add would round differently from
// the scalar matvec path and break the bit-exactness contract.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#define CN_HAVE_X86_TARGETS 1
#else
#define CN_HAVE_X86_TARGETS 0
#endif

#include "exec/simd.h"

namespace cn::exec {
namespace {

// Both kernel shapes below keep the scalar reference's arithmetic for every
// (item, bitline) pair: double accumulators for G+ and G-, each product
// v * g added in ascending wordline order as a separate multiply and add,
// then float(acc+ - acc-). Adding a zero-voltage term is a bitwise no-op for
// these sums (products are +/-normal or signed zero; round-to-nearest never
// flips an accumulator to -0), so the scalar path's v == 0 skip does not
// change results either.

// Bitline lanes: RB items at once against 8-bitline strips of the tile, for
// inputs whose items are not contiguous (row-major dense batches). One pass
// over the conductances serves RB items. The g arrays carry 8 doubles of end
// padding: lanes past `cols` compute garbage that is simply not written back.
template <int RB>
[[gnu::always_inline]] inline void bitline_lanes_impl(
    const double* gp, const double* gn, int64_t rows, int64_t cols,
    const float* x, int64_t xis, int64_t xws, float* cur, int64_t cis,
    int64_t ccs) {
  for (int64_t c0 = 0; c0 < cols; c0 += 8) {
    double accp[RB][8] = {}, accn[RB][8] = {};
    for (int64_t r = 0; r < rows; ++r) {
      const double* gpr = gp + r * cols + c0;
      const double* gnr = gn + r * cols + c0;
      double v[RB];
      for (int i = 0; i < RB; ++i) v[i] = static_cast<double>(x[i * xis + r * xws]);
      for (int c = 0; c < 8; ++c) {
        const double gpc = gpr[c], gnc = gnr[c];
        for (int i = 0; i < RB; ++i) {
          accp[i][c] += v[i] * gpc;
          accn[i][c] += v[i] * gnc;
        }
      }
    }
    const int64_t cc = std::min<int64_t>(8, cols - c0);
    for (int i = 0; i < RB; ++i)
      for (int64_t c = 0; c < cc; ++c)
        cur[i * cis + (c0 + c) * ccs] = static_cast<float>(accp[i][c] - accn[i][c]);
  }
}

template <int RB>
void bitline_lanes_generic(const double* gp, const double* gn, int64_t rows,
                           int64_t cols, const float* x, int64_t xis,
                           int64_t xws, float* cur, int64_t cis, int64_t ccs) {
  bitline_lanes_impl<RB>(gp, gn, rows, cols, x, xis, xws, cur, cis, ccs);
}

using BitlineKernel = void (*)(const double*, const double*, int64_t, int64_t,
                               const float*, int64_t, int64_t, float*, int64_t,
                               int64_t);

// Pixel lanes: for item-contiguous inputs (column-major im2col batches) the
// items — a conv's output pixels — fill the SIMD lanes and a few bitlines are
// register-blocked against them, so a narrow conv tile (6 or 16 bitlines)
// wastes no lanes. One kernel call covers `nblk` blocks of the level's lane
// width in items against CB bitlines starting at gp/gn (already offset to
// the first bitline): input (item i, wordline r) at x[r * xws + i], current
// (item i, bitline c) to cur[c * ccs + i].
using PixelKernel = void (*)(const double*, const double*, int64_t, int64_t,
                             const float*, int64_t, int64_t, float*, int64_t);

// Bitlines per pixel-kernel block at every level; the bitline tail of a tile
// runs the CB < kPixelCB instantiations.
constexpr int kPixelCB = 6;

// Portable level: PB items x CB bitlines of scalar accumulators, sized so
// 2 * CB * PB stays within a 16-register file at two doubles per register.
constexpr int kGenericLanes = 2;

template <int CB>
void pixel_kernel_generic(const double* gp, const double* gn, int64_t rows,
                          int64_t cols, const float* x, int64_t xws,
                          int64_t nblk, float* cur, int64_t ccs) {
  constexpr int PB = kGenericLanes;
  for (int64_t b = 0; b < nblk; ++b) {
    const float* xb = x + b * PB;
    double accp[CB][PB] = {}, accn[CB][PB] = {};
    for (int64_t r = 0; r < rows; ++r) {
      double v[PB];
      for (int i = 0; i < PB; ++i) v[i] = static_cast<double>(xb[r * xws + i]);
      const double* gpr = gp + r * cols;
      const double* gnr = gn + r * cols;
      for (int c = 0; c < CB; ++c) {
        const double gpc = gpr[c], gnc = gnr[c];
        for (int i = 0; i < PB; ++i) {
          accp[c][i] += v[i] * gpc;
          accn[c][i] += v[i] * gnc;
        }
      }
    }
    float* cb = cur + b * PB;
    for (int c = 0; c < CB; ++c)
      for (int i = 0; i < PB; ++i)
        cb[c * ccs + i] = static_cast<float>(accp[c][i] - accn[c][i]);
  }
}

// Wider SIMD variants, dispatched at runtime. Contraction must stay off
// (separate vmulpd/vaddpd): a fused multiply-add would round differently
// from the scalar path and break the bit-exact matmul == matvec guarantee.
#if CN_HAVE_X86_TARGETS
#define CN_AVX2 __attribute__((target("avx2"), optimize("fp-contract=off")))
#define CN_AVX512 __attribute__((target("avx512f"), optimize("fp-contract=off")))

template <int RB>
CN_AVX2 void bitline_lanes_avx2(const double* gp, const double* gn, int64_t rows,
                                int64_t cols, const float* x, int64_t xis,
                                int64_t xws, float* cur, int64_t cis, int64_t ccs) {
  bitline_lanes_impl<RB>(gp, gn, rows, cols, x, xis, xws, cur, cis, ccs);
}

template <int RB>
CN_AVX512 void bitline_lanes_avx512(const double* gp, const double* gn,
                                    int64_t rows, int64_t cols, const float* x,
                                    int64_t xis, int64_t xws, float* cur,
                                    int64_t cis, int64_t ccs) {
  bitline_lanes_impl<RB>(gp, gn, rows, cols, x, xis, xws, cur, cis, ccs);
}

// AVX2: 16 ymm registers. Four items per register and 6 bitlines x 2
// polarities = 12 accumulators, plus the voltages and two broadcasts.
constexpr int kAvx2Lanes = 4;

template <int CB>
CN_AVX2 void pixel_kernel_avx2(const double* gp, const double* gn, int64_t rows,
                               int64_t cols, const float* x, int64_t xws,
                               int64_t nblk, float* cur, int64_t ccs) {
  for (int64_t b = 0; b < nblk; ++b) {
    const float* xb = x + b * kAvx2Lanes;
    __m256d accp[CB], accn[CB];
#pragma GCC unroll 8
    for (int c = 0; c < CB; ++c) accp[c] = accn[c] = _mm256_setzero_pd();
    for (int64_t r = 0; r < rows; ++r) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(xb + r * xws));
      const double* gpr = gp + r * cols;
      const double* gnr = gn + r * cols;
#pragma GCC unroll 8
      for (int c = 0; c < CB; ++c) {
        accp[c] = _mm256_add_pd(accp[c], _mm256_mul_pd(v, _mm256_broadcast_sd(gpr + c)));
        accn[c] = _mm256_add_pd(accn[c], _mm256_mul_pd(v, _mm256_broadcast_sd(gnr + c)));
      }
    }
    float* cb = cur + b * kAvx2Lanes;
#pragma GCC unroll 8
    for (int c = 0; c < CB; ++c)
      _mm_storeu_ps(cb + c * ccs, _mm256_cvtpd_ps(_mm256_sub_pd(accp[c], accn[c])));
  }
}

// AVX-512: 32 zmm registers. Sixteen items (two registers) x 6 bitlines x 2
// polarities = 24 accumulators, plus two voltage registers and broadcasts.
// The conversions use the all-lanes maskz forms: same instructions, but the
// unmasked ones trip GCC 12's -Wmaybe-uninitialized on their undefined
// pass-through operand.
constexpr int kAvx512Lanes = 16;
constexpr __mmask8 kAll8 = 0xFF;

template <int CB>
CN_AVX512 void pixel_kernel_avx512(const double* gp, const double* gn,
                                   int64_t rows, int64_t cols, const float* x,
                                   int64_t xws, int64_t nblk, float* cur,
                                   int64_t ccs) {
  for (int64_t b = 0; b < nblk; ++b) {
    const float* xb = x + b * kAvx512Lanes;
    __m512d accp0[CB], accp1[CB], accn0[CB], accn1[CB];
#pragma GCC unroll 8
    for (int c = 0; c < CB; ++c)
      accp0[c] = accp1[c] = accn0[c] = accn1[c] = _mm512_setzero_pd();
    for (int64_t r = 0; r < rows; ++r) {
      const float* xr = xb + r * xws;
      const __m512d v0 = _mm512_maskz_cvtps_pd(kAll8, _mm256_loadu_ps(xr));
      const __m512d v1 = _mm512_maskz_cvtps_pd(kAll8, _mm256_loadu_ps(xr + 8));
      const double* gpr = gp + r * cols;
      const double* gnr = gn + r * cols;
#pragma GCC unroll 8
      for (int c = 0; c < CB; ++c) {
        const __m512d p = _mm512_set1_pd(gpr[c]);
        const __m512d q = _mm512_set1_pd(gnr[c]);
        accp0[c] = _mm512_add_pd(accp0[c], _mm512_mul_pd(v0, p));
        accp1[c] = _mm512_add_pd(accp1[c], _mm512_mul_pd(v1, p));
        accn0[c] = _mm512_add_pd(accn0[c], _mm512_mul_pd(v0, q));
        accn1[c] = _mm512_add_pd(accn1[c], _mm512_mul_pd(v1, q));
      }
    }
    float* cb = cur + b * kAvx512Lanes;
#pragma GCC unroll 8
    for (int c = 0; c < CB; ++c) {
      _mm256_storeu_ps(cb + c * ccs,
                       _mm512_maskz_cvtpd_ps(kAll8, _mm512_sub_pd(accp0[c], accn0[c])));
      _mm256_storeu_ps(cb + c * ccs + 8,
                       _mm512_maskz_cvtpd_ps(kAll8, _mm512_sub_pd(accp1[c], accn1[c])));
    }
  }
}
#endif  // CN_HAVE_X86_TARGETS

// One kernel table per ISA level (generic, avx2, avx512f), so dispatch can
// be pinned per level for the parity suites. Builds without x86 target
// attributes alias every level to the generic kernels.
#define CN_BITLINE_LEVEL(fn) \
  {fn<1>, fn<2>, fn<3>, fn<4>, fn<5>, fn<6>, fn<7>, fn<8>}
#define CN_PIXEL_LEVEL(fn) {fn<1>, fn<2>, fn<3>, fn<4>, fn<5>, fn<6>}

struct LevelKernels {
  BitlineKernel bitline[8];  // by items per call - 1
  PixelKernel pixel[kPixelCB];  // by bitlines per call - 1
  int64_t lanes;  // items per pixel-kernel block
};

const LevelKernels kLevels[3] = {
    {CN_BITLINE_LEVEL(bitline_lanes_generic), CN_PIXEL_LEVEL(pixel_kernel_generic),
     kGenericLanes},
#if CN_HAVE_X86_TARGETS
    {CN_BITLINE_LEVEL(bitline_lanes_avx2), CN_PIXEL_LEVEL(pixel_kernel_avx2),
     kAvx2Lanes},
    {CN_BITLINE_LEVEL(bitline_lanes_avx512), CN_PIXEL_LEVEL(pixel_kernel_avx512),
     kAvx512Lanes},
#else
    {CN_BITLINE_LEVEL(bitline_lanes_generic), CN_PIXEL_LEVEL(pixel_kernel_generic),
     kGenericLanes},
    {CN_BITLINE_LEVEL(bitline_lanes_generic), CN_PIXEL_LEVEL(pixel_kernel_generic),
     kGenericLanes},
#endif
};
#undef CN_BITLINE_LEVEL
#undef CN_PIXEL_LEVEL

// Runs a level's pixel kernels over `nitems` item-contiguous inputs. Whole
// lane blocks go straight to the kernels when the output is item-contiguous
// too; the item tail (and any item-strided output) is staged through a
// zero-padded block in scratch — padded lanes compute zeros that are not
// written back.
void pixel_lanes(const LevelKernels& k, const double* gp, const double* gn,
                 int64_t rows, int64_t cols, const float* x, int64_t nitems,
                 int64_t xws, float* cur, int64_t cis, int64_t ccs,
                 Scratch& scratch) {
  const int64_t lanes = k.lanes;
  auto run = [&](const float* xb, int64_t xstride, int64_t nblk, float* out,
                 int64_t ostride) {
    for (int64_t c0 = 0; c0 < cols; c0 += kPixelCB) {
      const int64_t cb = std::min<int64_t>(kPixelCB, cols - c0);
      k.pixel[cb - 1](gp + c0, gn + c0, rows, cols, xb, xstride, nblk,
                      out + c0 * ostride, ostride);
    }
  };
  int64_t done = 0;
  if (cis == 1) {
    const int64_t nblk = nitems / lanes;
    if (nblk > 0) run(x, xws, nblk, cur, ccs);
    done = nblk * lanes;
  }
  while (done < nitems) {
    const int64_t m = std::min(lanes, nitems - done);
    float* xp = scratch.floats(static_cast<size_t>((rows + cols) * lanes));
    float* cp = xp + rows * lanes;
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t i = 0; i < lanes; ++i)
        xp[r * lanes + i] = i < m ? x[r * xws + done + i] : 0.0f;
    run(xp, lanes, 1, cp, lanes);
    for (int64_t c = 0; c < cols; ++c)
      for (int64_t i = 0; i < m; ++i)
        cur[(done + i) * cis + c * ccs] = cp[c * lanes + i];
    done += m;
  }
}

int detect_level() {
#if CN_HAVE_X86_TARGETS
  if (__builtin_cpu_supports("avx512f")) return 2;
  if (__builtin_cpu_supports("avx2")) return 1;
#endif
  return 0;
}

}  // namespace

namespace simd {

int max_level() {
  static const int max = detect_level();
  return max;
}

namespace {
std::atomic<int> pinned{-1};  // pin_level; -1 = unpinned
}  // namespace

int level() {
  const int p = pinned.load();
  return p < 0 ? max_level() : p;
}

const char* level_name(int level) {
  static const char* const kNames[] = {"generic", "avx2", "avx512f"};
  return kNames[level];
}

void pin_level(int level) {
  if (level < -1 || level > max_level())
    throw std::invalid_argument("simd::pin_level: level " + std::to_string(level) +
                                " is not runnable on this host (max level " +
                                std::to_string(max_level()) + ")");
  pinned.store(level);
}

}  // namespace simd

TileExec::TileExec(const float* g_pos, const float* g_neg, int64_t rows,
                   int64_t cols, int level)
    : rows_(rows), cols_(cols), level_(level) {
  const size_t n = static_cast<size_t>(rows_ * cols_);
  gd_pos_.assign(n + 8, 0.0);
  gd_neg_.assign(n + 8, 0.0);
  for (size_t i = 0; i < n; ++i) {
    gd_pos_[i] = static_cast<double>(g_pos[i]);
    gd_neg_[i] = static_cast<double>(g_neg[i]);
  }
}

void TileExec::currents(const float* x, int64_t nitems, int64_t xis,
                        int64_t xws, float* cur, int64_t cis, int64_t ccs,
                        Scratch& scratch) const {
  const LevelKernels& k = kLevels[level_];
  if (xis == 1) {
    pixel_lanes(k, gd_pos_.data(), gd_neg_.data(), rows_, cols_, x, nitems,
                xws, cur, cis, ccs, scratch);
    return;
  }
  k.bitline[nitems - 1](gd_pos_.data(), gd_neg_.data(), rows_, cols_, x, xis,
                        xws, cur, cis, ccs);
}

}  // namespace cn::exec
