// Pluggable execution targets for the batched crossbar path.
//
// A Target is one way of executing the hot bitline-current kernel: it lowers
// a programmed tile (TileView) into a TileExec, an immutable executable the
// batched matmul dispatches to. Targets self-describe (name, description,
// availability on this host) and live in a process-wide registry, so
// frontends can enumerate them (`correctnet_cli --list-targets`), configs can
// select them by name (the campaign `target` key), and new backends plug in
// without touching the dispatch sites.
//
// Built-in registrations:
//   simd          register-blocked kernels at the widest ISA level this
//                 host supports (generic/avx2/avx512f) — the default
//   simd-generic  the portable kernels, pinned
//   simd-avx2     AVX2 kernels, pinned (x86-64 GCC builds on AVX2 hosts)
//   simd-avx512f  AVX-512F kernels, pinned
//
// The lowering seam is deliberately narrow — conductance arrays in, current
// blocks out — so an offload target (GPU, accelerator API) can fill it without
// the analog layer changing: implement Target::lower, call register_target.
//
// Bit-exactness contract: every Target must produce currents bit-identical
// to CrossbarTile's per-column scalar reference under every fault model and
// remap setting (per-column accumulation in ascending wordline order, double
// accumulators, no FMA contraction — see the parity suites in
// tests/test_crossbar_exec.cpp). A target therefore never changes a result,
// only how fast it is computed.
//
// The process default target is, in increasing precedence: "simd", the
// CORRECTNET_TARGET environment variable (validated at first registry use;
// how CI forces a target under every test binary), set_default_target().
// Already-constructed arrays keep the target they were lowered with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"

namespace cn::exec {

/// Read-only view of one programmed tile handed to Target::lower. The
/// conductance arrays are row-major (rows x cols) differential pairs, valid
/// for the lifetime of the returned TileExec (the owning CrossbarTile
/// re-lowers whenever it mutates them).
struct TileView {
  const float* g_pos = nullptr;
  const float* g_neg = nullptr;
  int64_t rows = 0, cols = 0;
  float g_min = 0.0f, g_max = 0.0f;  // device conductance range
};

/// Per-worker scratch buffers for TileExec::currents: grown on demand,
/// reused across calls so the hot loop never allocates. One Scratch per
/// thread — TileExec itself must stay stateless across calls.
struct Scratch {
  float* floats(size_t n) {
    if (f32_.size() < n) f32_.resize(n);
    return f32_.data();
  }

 private:
  std::vector<float> f32_;
};

/// One tile lowered for execution. Implementations are immutable after
/// construction and must be safe to call concurrently (matmul workers share
/// one TileExec across row blocks; per-call state goes in Scratch).
class TileExec {
 public:
  virtual ~TileExec() = default;

  /// Differential bitline currents for a block of input vectors: input
  /// element (item i, wordline r) sits at x[i * x_item_stride +
  /// r * x_word_stride]; output current (item i, bitline c) is written to
  /// cur[i * cur_item_stride + c * cur_col_stride]. The output stride pair
  /// lets the caller pick either orientation of the current block:
  /// item-major (cur_col_stride == 1, the dense path) or bitline-major
  /// (cur_item_stride == 1, the conv path, whose rows then line up with
  /// NCHW output planes). nitems never exceeds row_block() for the same
  /// input layout. The caller applies read noise / ADC / weight scaling
  /// afterwards (shared periphery tail — targets only compute raw current
  /// sums).
  ///
  /// Lane orientation follows the input layout: an item-contiguous input
  /// (x_item_stride == 1, column-major im2col batches) lets a target put
  /// items (output pixels) in its SIMD lanes, any other layout puts
  /// bitlines there. Either way each (item, bitline) sum keeps the scalar
  /// reference's arithmetic (see the contract in the header comment).
  virtual void currents(const float* x, int64_t nitems, int64_t x_item_stride,
                        int64_t x_word_stride, float* cur,
                        int64_t cur_item_stride, int64_t cur_col_stride,
                        Scratch& scratch) const = 0;

  /// Preferred item-block size (>= 1, no upper bound) for currents() calls
  /// on an input whose items are contiguous (`item_contiguous`, i.e.
  /// x_item_stride == 1) or not. The caller sizes its current block to
  /// row_block * cols. Blocking never changes results, only register/cache
  /// pressure: bitline-lane kernels want a handful of items, pixel-lane
  /// kernels a multiple of their lane width.
  virtual int64_t row_block(bool item_contiguous) const = 0;
};

/// One execution strategy for the batched crossbar path.
class Target {
 public:
  virtual ~Target() = default;

  /// Registry key ([a-z0-9-], unique).
  virtual std::string name() const = 0;
  /// One-line human description for --list-targets.
  virtual std::string description() const = 0;
  /// Capability probe: can this build + host execute the target?
  virtual bool available() const = 0;
  /// Lowers one programmed tile into an executable whose currents match the
  /// scalar reference bitwise (see the contract in the header comment). May
  /// throw when the tile shape is outside the target's envelope.
  virtual std::unique_ptr<TileExec> lower(const TileView& tile) const = 0;
};

/// Registers a target under its name(). Throws std::invalid_argument on a
/// duplicate or empty name. The registry owns the target for process
/// lifetime; the returned pointer is stable. Thread-safe.
const Target* register_target(std::unique_ptr<Target> target);

/// Looks up a target by name; nullptr when unknown (the target may still be
/// unavailable on this host — check available()).
const Target* find_target(const std::string& name);

/// Looks up a target by name, throwing std::runtime_error — with the list of
/// registered names — when it is unknown or unavailable on this host.
const Target& get_target(const std::string& name);

/// Every registered target, in registration order (builtins first).
std::vector<const Target*> registered_targets();

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

/// ISA levels of the built-in simd family (0 = generic, 1 = avx2,
/// 2 = avx512f). The "simd" target lowers at max_level(); a specific level is
/// selected by naming its pinned target (simd-generic/...).
namespace simd {
int max_level();  // widest level this build + host can execute
}  // namespace simd

}  // namespace cn::exec
