// Execution targets of the batched crossbar path.
//
// The hot bitline-current kernel has one implementation family, the simd
// kernels (src/exec/simd_target.cpp), at three ISA levels. A Target names
// one level of that family; the set is a fixed four-row table:
//
//   simd          the widest ISA level this host supports
//                 (generic/avx2/avx512f) — the default
//   simd-generic  the portable kernels, pinned
//   simd-avx2     AVX2 kernels, pinned (x86-64 GCC builds on AVX2 hosts)
//   simd-avx512f  AVX-512F kernels, pinned
//
// The pinned rows are the parity references: every level must agree bit for
// bit. Frontends enumerate the table (`correctnet_cli --list-targets`) and
// configs select a row by name (the campaign `target` key, `--target`).
//
// Bit-exactness contract: every level produces currents bit-identical to
// CrossbarTile's per-column scalar reference under every fault model and
// remap setting (per-column accumulation in ascending wordline order, double
// accumulators, no FMA contraction — see the parity suites in
// tests/test_crossbar_exec.cpp). A target therefore never changes a result,
// only how fast it is computed.
//
// The process default target is, in increasing precedence: "simd", the
// CORRECTNET_TARGET environment variable (validated at the first
// get_target/default_target call; how CI forces a target under every test
// binary), set_default_target(). Already-constructed arrays keep the target
// they were lowered with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

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

 private:
  int64_t rows_ = 0, cols_ = 0;
  int level_ = 0;
  // 8 doubles of end padding: bitline lanes past `cols` read it.
  std::vector<double> gd_pos_, gd_neg_;
};

/// One row of the target table: an ISA level of the simd family.
class Target {
 public:
  /// Table key ([a-z0-9-], unique).
  const std::string& name() const { return name_; }
  /// One-line human description for --list-targets.
  const std::string& description() const { return description_; }
  /// Can this build + host execute the level?
  bool available() const;
  /// The ISA level tiles lower at ("simd": the widest available).
  int level() const;

 private:
  friend const std::vector<const Target*>& registered_targets();
  Target(std::string name, std::string description, int pinned_level);

  std::string name_, description_;
  int pinned_;  // < 0: the widest level
};

/// The four targets, in table order ("simd" first). Process lifetime.
const std::vector<const Target*>& registered_targets();

/// Looks up a target by name; nullptr when unknown (the target may still be
/// unavailable on this host — check available()).
const Target* find_target(const std::string& name);

/// Looks up a target by name, throwing std::runtime_error — with the list of
/// target names — when it is unknown or unavailable on this host.
const Target& get_target(const std::string& name);

/// The target newly constructed CrossbarArrays lower with when no explicit
/// target is passed down (see precedence in the header comment).
const Target& default_target();

/// Overrides the process default (CLI --target). Throws like get_target.
void set_default_target(const std::string& name);

/// Drops the set_default_target override, restoring the startup default
/// (CORRECTNET_TARGET when set, else "simd").
void reset_default_target();

/// The CORRECTNET_TARGET row (docs/CONFIG.md "Environment knobs").
const core::Knobs& knobs();

/// ISA levels of the simd family (0 = generic, 1 = avx2, 2 = avx512f). The
/// "simd" target lowers at max_level(); a specific level is selected by
/// naming its pinned target (simd-generic/...).
namespace simd {
int max_level();  // widest level this build + host can execute
}  // namespace simd

}  // namespace cn::exec
