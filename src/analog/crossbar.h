// RRAM crossbar simulator (paper §II, Fig. 1).
//
// Weights map to differential conductance pairs: w = s·(G⁺ − G⁻) with both
// conductances in [g_min, g_max]. MAC is Ohm's law + Kirchhoff's current law:
// applying input voltages on wordlines, each bitline accumulates
// I_j = Σ_i V_i · G_ij, and the digital periphery computes s·(I⁺_j − I⁻_j).
//
// Programming variation perturbs each programmed conductance with the
// lognormal model; optional multi-level programming quantizes conductances,
// and optional read noise / ADC quantization model the readout path. At zero
// variation and full precision, crossbar MVM equals the ideal matvec — a
// property test pins this down.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analog/quant.h"
#include "analog/variation.h"
#include "exec/simd.h"
#include "remap/remap.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cn::analog {

/// Readout-periphery knobs of a crossbar tile: everything that perturbs or
/// quantizes the signal path at read time rather than at programming time.
/// Nested so device specs (and faultsim scenario overrides) can set or copy
/// the whole periphery in one assignment.
struct RramReadout {
  float read_sigma = 0.0f;  // per-read multiplicative Gaussian noise on currents
  int adc_bits = 0;         // >0: quantize accumulated currents
  int dac_bits = 0;         // >0: quantize input voltages
};

/// Names a run of crossbar reads for read noise: item i of a batched call is
/// read number `first + i` of the layer whose read seed is `seed`. Item i's
/// noise on tile t is Rng(for_tile(t).stream(i)) drawn in bitline order — a
/// pure function of (seed, read ordinal, tile), so it does not depend on the
/// execution path, the batch a read rides in, or the reads before it.
struct ReadKey {
  uint64_t seed = 0;
  uint64_t first = 0;

  /// The key tile t of an array reads under (same reads, tile-salted seed).
  ReadKey for_tile(size_t t) const {
    return {mix64(seed ^ (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(t) + 1))),
            first};
  }
  /// Seed of item i's noise stream.
  uint64_t stream(int64_t i) const {
    return mix64(seed ^ (first + static_cast<uint64_t>(i)));
  }
};

/// A read key, or none for quiet reads (no read noise drawn even when the
/// device has read_sigma > 0).
using Reads = std::optional<ReadKey>;

/// Physical device / periphery parameters of one crossbar tile.
struct RramDeviceParams {
  float g_min = 1e-6f;        // Siemens; off conductance
  float g_max = 1e-4f;        // Siemens; on conductance
  int conductance_levels = 0; // >0: multi-level cell quantization before variation
  float program_sigma = 0.0f; // lognormal σ applied to programmed conductance
  RramReadout readout;        // read noise / ADC / DAC periphery
};

/// Injection hook for device-fault and nonideality models (src/faultsim).
/// After a tile is programmed (level quantization + programming variation),
/// every model of a fault list transforms the conductance pair arrays in
/// place, in list order. Implementations must derive all randomness from the
/// passed Rng so chips stay seed-deterministic (runtime::ChipFarm
/// re-materializes chips from chip_seed alone, and bit-identical results
/// across thread/slot counts depend on it). Models with zero severity must
/// be true no-ops: no rng draws, no writes. Conductances are not re-clamped
/// by the caller (matching programming variation, which may also exceed
/// g_max); models are responsible for staying physical.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Placement of one tile inside its CrossbarArray, in the (in, out)
  /// orientation: tile wordline r is array wordline row0 + r, tile bitline c
  /// is array bitline col0 + c.
  struct TileCtx {
    int64_t rows = 0, cols = 0;              // tile extent
    int64_t row0 = 0, col0 = 0;              // offset within the array
    int64_t array_rows = 0, array_cols = 0;  // full array extent
  };

  /// Adjusts device parameters before programming (e.g. temperature-scaled
  /// sigmas). Called once per CrossbarArray on its private copy.
  virtual void prepare_device(RramDeviceParams&) const {}

  /// Transforms the programmed conductances of one tile in place. g_pos and
  /// g_neg are row-major (rows x cols).
  virtual void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                     const RramDeviceParams& dev, Rng& rng) const = 0;

  /// Like apply(), but additionally records hard-defective devices into
  /// `defects` (nullable) for the fault-aware remapping controller. Models
  /// with a program-time defect map (StuckAtFault) override this; soft
  /// nonidealities have nothing discrete to report and inherit the default,
  /// which forwards to apply(). Overrides MUST draw from `rng` in exactly
  /// the same sequence as apply() so remapped and unremapped chips built
  /// from one seed see identical fault realizations (the campaign's
  /// matched-pair axis depends on it).
  virtual void apply_mapped(float* g_pos, float* g_neg, const TileCtx& ctx,
                            const RramDeviceParams& dev, Rng& rng,
                            remap::DefectMap* defects) const {
    (void)defects;
    apply(g_pos, g_neg, ctx, dev, rng);
  }

  /// Whether this model can report defects via apply_mapped. Soft
  /// nonidealities return false so the remap hook skips the per-model
  /// conductance snapshot for them.
  virtual bool has_defect_map() const { return false; }

  virtual std::string name() const = 0;
};

/// Non-owning fault list, applied in order. Ownership stays with the caller
/// (faultsim::FaultSpec holds shared_ptrs); the pointed-to models must
/// outlive every chip programmed with them.
using FaultList = std::vector<const FaultModel*>;

/// One crossbar tile holding a weight matrix W (rows, cols): rows are inputs
/// (wordlines), cols are outputs (bitlines), i.e. y = W^T x is computed as
/// column current sums. CorrectNet layers store W as (out, in); use
/// CrossbarArray which handles the transpose and tiling.
class CrossbarTile {
 public:
  /// Programs the tile from `w` (rows=in, cols=out), scaling by max |w| of
  /// the whole array (`w_absmax`). Applies level quantization then
  /// programming variation via `rng`. The batched path's simd kernels are
  /// lowered once at construction, at exec::simd::level(); `defer_lowering`
  /// skips that when an apply_faults call is known to follow immediately (it
  /// re-lowers) — callers who defer and then never apply faults would leave
  /// the batched path with no executable.
  CrossbarTile(const Tensor& w, float w_absmax, const RramDeviceParams& dev, Rng& rng,
               bool defer_lowering = false);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  /// Applies a fault list to the programmed conductances (construction-time
  /// transform; see FaultModel). Both execution paths read the transformed
  /// arrays, so batched matmul stays bit-identical to matvec under every
  /// model. CrossbarArray calls this right after placing each tile.
  ///
  /// With active `remap` params this is also the tile's remap hook: each
  /// model's defect map is collected as it runs (FaultModel::apply_mapped —
  /// same rng draws either way) and a remap::RemapController immediately
  /// plans and applies spare-line/pair-swap repairs against the values that
  /// model disturbed, sharing the tile's spare budget across the list, all
  /// before the batched copies are rebuilt. Soft nonidealities later in the
  /// list age repaired devices like any other. Repair accounting
  /// accumulates into `stats` (nullable). Zero defects -> no plan, no extra
  /// rng draws.
  void apply_faults(const FaultList& faults, const FaultModel::TileCtx& ctx,
                    Rng& rng, const remap::RemapParams* remap = nullptr,
                    remap::RemapStats* stats = nullptr);

  /// y_j += Σ_i x_i · w_eff(i,j); applies read noise/ADC if configured.
  /// `reads` is this tile's key; the vector is its read `first`.
  void accumulate_matvec(const float* x, float* y, const Reads& reads) const;

  /// Batched path: accumulates `nitems` input vectors into y through the
  /// tile's lowered simd kernels, item-blocked so conductance loads
  /// amortize across the batch. Input element (item i, wordline r) sits at
  /// x[i * x_item_stride + r * x_word_stride], which covers both row-major
  /// batches (item_stride = ld, word_stride = 1) and column-major ones like
  /// im2col outputs (item_stride = 1, word_stride = ld). Result (item i,
  /// bitline c) accumulates into y[c * ldy + i] when `y_bitline_major`,
  /// else into y[i * ldy + c]; the current block between kernel and readout
  /// tail takes the same orientation. Each result is bit-identical to
  /// accumulate_matvec (same per-column wordline accumulation order, same
  /// per-read noise draws). `reads` is this tile's key, item i being read
  /// `first + i`; `cur` (grown on demand) and `scratch` are the calling
  /// worker's buffers.
  void accumulate_rows(const float* x, int64_t nitems, int64_t x_item_stride,
                       int64_t x_word_stride, float* y, int64_t ldy,
                       bool y_bitline_major, const Reads& reads,
                       std::vector<float>& cur, exec::Scratch& scratch) const;

  /// The effective (perturbed, quantized) weight matrix (rows=in, cols=out).
  Tensor effective_weights() const;

  /// The ISA level the batched path was lowered at.
  int level() const { return exec_.level(); }

 private:
  /// Read noise (as item `item` of `reads`) + ADC + scaled accumulation of
  /// one current row into y; shared tail of the scalar and batched paths
  /// (exact parity).
  void finish_row(float* currents, float* y, const Reads& reads,
                  int64_t item) const;

  /// finish_row over a bitline-major block of `nitems` items — current
  /// (item i, bitline c) at cur[c * nitems + i], result into
  /// y[c * ldy + i], block item i being item `item0 + i` of `reads` — with
  /// the same per-element arithmetic and noise draws, vectorized over items.
  void finish_block(float* cur, int64_t nitems, float* y, int64_t ldy,
                    const Reads& reads, int64_t item0) const;

  /// (Re-)builds the batched path's executable from the programmed
  /// conductances at exec::simd::level() (after programming or fault
  /// injection).
  void lower();

  int64_t rows_, cols_;
  float scale_;                 // weight per Siemens
  RramDeviceParams dev_;
  std::vector<float> g_pos_, g_neg_;  // programmed conductances, row-major
  // The batched path's executable: its own copy of the g arrays, so any
  // mutation of the arrays must re-lower.
  exec::TileExec exec_;
};

/// A weight matrix W (out, in) split into tiles of at most `tile` rows/cols,
/// as a real accelerator would. matvec(x) returns W_eff · x.
class CrossbarArray {
 public:
  /// Programs the array; if `faults` is given, each model first adjusts the
  /// array's private device-parameter copy (prepare_device) and then
  /// transforms every tile's conductances in place right after that tile is
  /// programmed, drawing from the same `rng` stream — so a chip remains a
  /// pure function of its seed. Active `remap` params additionally run the
  /// fault-aware remapping controller on every tile (see
  /// CrossbarTile::apply_faults); the summed repair accounting is readable
  /// via remap_stats(). The batched path runs the simd kernels at the level
  /// current at construction; the scalar matvec reference is
  /// level-independent.
  CrossbarArray(const Tensor& w_out_in, const RramDeviceParams& dev, Rng& rng,
                int64_t tile = 128, const FaultList* faults = nullptr,
                const remap::RemapParams* remap = nullptr);

  int64_t in_dim() const { return in_; }
  int64_t out_dim() const { return out_; }
  int64_t num_tiles() const { return static_cast<int64_t>(tiles_.size()); }

  /// The ISA level this array's tiles were lowered at.
  int level() const;

  /// y = W_eff · x, as read `reads->first`; read noise is drawn when a key
  /// is given and the device has read_sigma > 0.
  Tensor matvec(const Tensor& x, const Reads& reads = std::nullopt) const;

  /// Y = X · W_eff^T for X (batch, in) -> Y (batch, out): every row of X is
  /// one wordline-voltage vector, row i being read `reads->first + i`.
  /// Tile-blocked and threadpool-parallel over (output-tile group × row
  /// block); row i is bit-identical to matvec of row i as read `first + i`,
  /// read noise included (same accumulation order, same per-(read, tile)
  /// noise streams), whatever the thread count, row blocking or batch size.
  Tensor matmul(const Tensor& x, const Reads& reads = std::nullopt) const;

  /// matmul for a column-major batch: X (in, batch) -> Y (out, batch),
  /// column b of X being one wordline-voltage vector (read
  /// `reads->first + b`) and column b of Y its result. This is the natural
  /// layout of im2col inputs and of NCHW outputs: for one image, Y is the
  /// conv's (out_c, OH*OW) plane as is. The kernels put batch items in their
  /// SIMD lanes. Same bit-exactness and read-noise guarantees as matmul (Y is
  /// matmul's result transposed for the same key).
  Tensor matmul_cols(const Tensor& x_cm, const Reads& reads = std::nullopt) const;

  /// Raw-buffer matmul_cols: x_cm holds in_dim() x n floats (column-major
  /// batch), y receives out_dim() x n floats (overwritten).
  void matmul_cols(const float* x_cm, int64_t n, float* y,
                   const Reads& reads = std::nullopt) const;

  /// Reconstructs the full effective weight matrix (out, in) for validation.
  Tensor effective_weights() const;

  /// Repair accounting summed over every tile (all-zero when remapping was
  /// off or no defects occurred).
  const remap::RemapStats& remap_stats() const { return remap_stats_; }

 private:
  /// Shared batched path: y is (n, out) for a row-major x, (out, n) for a
  /// column-major one; overwritten.
  void matmul_impl(const float* xd, int64_t n, bool colmajor, float* y,
                   const Reads& reads) const;

  struct Placed {
    int64_t row0, col0;  // offsets in the (in, out) orientation
    CrossbarTile tile;
  };
  int64_t in_, out_;
  RramDeviceParams dev_;
  remap::RemapStats remap_stats_;
  std::vector<Placed> tiles_;
  // Tile indices grouped by col0 (disjoint output column ranges): the unit
  // of parallelism in matmul. Within a group, tiles stay in construction
  // order (ascending row0) to preserve matvec's accumulation order.
  std::vector<std::vector<size_t>> col_groups_;
};

}  // namespace cn::analog
