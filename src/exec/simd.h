// The batched crossbar path's one kernel family: the simd kernels
// (src/exec/simd.cpp) at three ISA levels, 0 = generic, 1 = avx2 and
// 2 = avx512f. Tiles lower at simd::level(), which is the widest level this
// build and host support (read from cpuid); the parity suites pin each
// level in turn with simd::pin_level to prove all of them bit-identical.
//
// Bit-exactness contract: every level produces currents bit-identical to
// CrossbarTile's per-column scalar reference under every fault model and
// remap setting (per-column accumulation in ascending wordline order, double
// accumulators, no FMA contraction — see the parity suites in
// tests/test_crossbar_exec.cpp). The level therefore never changes a result,
// only how fast it is computed, and nothing outside tests and bench_kernels
// selects it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cn::exec {

/// Per-worker scratch buffers for TileExec::currents: grown on demand,
/// reused across calls so the hot loop never allocates. One Scratch per
/// thread — TileExec itself stays stateless across calls.
struct Scratch {
  float* floats(size_t n) {
    if (f32_.size() < n) f32_.resize(n);
    return f32_.data();
  }

 private:
  std::vector<float> f32_;
};

/// One programmed tile lowered for the simd kernels: padded double copies of
/// its differential conductances (float->double conversion is exact, so the
/// hot loop skips per-element converts without changing a result), executed
/// at one ISA level. Immutable after construction and safe to call
/// concurrently (matmul workers share one TileExec across row blocks;
/// per-call state goes in Scratch).
class TileExec {
 public:
  /// An empty executable (no tile lowered yet).
  TileExec() = default;
  /// Lowers the row-major (rows x cols) conductance pair arrays at ISA
  /// `level` (0 = generic, 1 = avx2, 2 = avx512f).
  TileExec(const float* g_pos, const float* g_neg, int64_t rows, int64_t cols,
           int level);

  /// Differential bitline currents for a block of input vectors: input
  /// element (item i, wordline r) sits at x[i * x_item_stride +
  /// r * x_word_stride]; output current (item i, bitline c) is written to
  /// cur[i * cur_item_stride + c * cur_col_stride]. The output stride pair
  /// lets the caller pick either orientation of the current block:
  /// item-major (cur_col_stride == 1, the dense path) or bitline-major
  /// (cur_item_stride == 1, the conv path, whose rows then line up with
  /// NCHW output planes). nitems never exceeds row_block() for the same
  /// input layout. The caller applies read noise / ADC / weight scaling
  /// afterwards (shared periphery tail — the kernels only compute raw
  /// current sums).
  ///
  /// Lane orientation follows the input layout: an item-contiguous input
  /// (x_item_stride == 1, column-major im2col batches) puts items (output
  /// pixels) in the SIMD lanes, any other layout puts bitlines there.
  /// Either way each (item, bitline) sum keeps the scalar reference's
  /// arithmetic (see the contract in the header comment).
  void currents(const float* x, int64_t nitems, int64_t x_item_stride,
                int64_t x_word_stride, float* cur, int64_t cur_item_stride,
                int64_t cur_col_stride, Scratch& scratch) const;

  /// Preferred item-block size (>= 1) for currents() calls on an input whose
  /// items are contiguous (`item_contiguous`, i.e. x_item_stride == 1) or
  /// not. The caller sizes its current block to row_block * cols. Blocking
  /// never changes results, only register/cache pressure: pixel lanes take a
  /// few lane blocks per call (64 is a multiple of every level's lane
  /// width); bitline lanes fit 8 items in AVX-512's 32 registers, and
  /// narrower ISAs spill past 4.
  int64_t row_block(bool item_contiguous) const {
    if (item_contiguous) return 64;
    return level_ == 2 ? 8 : 4;
  }

  /// The ISA level this tile was lowered at.
  int level() const { return level_; }

 private:
  int64_t rows_ = 0, cols_ = 0;
  int level_ = 0;
  // 8 doubles of end padding: bitline lanes past `cols` read it.
  std::vector<double> gd_pos_, gd_neg_;
};

/// ISA levels of the simd family (0 = generic, 1 = avx2, 2 = avx512f).
namespace simd {
/// The widest level this build + host can execute (from cpuid, read once).
int max_level();
/// The level tiles lower at: max_level(), unless pinned.
int level();
/// "generic", "avx2" or "avx512f" for a level in [0, 2].
const char* level_name(int level);
/// Pins the lowering level for every tile lowered afterwards; -1 unpins.
/// Tiles already lowered keep their level. Throws std::invalid_argument for
/// a level this host cannot run (or one below -1). For parity tests and
/// bench_kernels; a pinned level never changes a result.
void pin_level(int level);
}  // namespace simd

}  // namespace cn::exec
