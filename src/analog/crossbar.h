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
#include <memory>
#include <string>
#include <vector>

#include "analog/quant.h"
#include "analog/variation.h"
#include "remap/remap.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cn::exec {
class Target;
class TileExec;
struct Scratch;
}  // namespace cn::exec

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
  /// programming variation via `rng`. The batched path executes through
  /// `target` (nullptr = exec::default_target()), which lowers the
  /// programmed conductances once at construction. `defer_lowering` skips
  /// that when an apply_faults call is known to follow immediately (it
  /// re-lowers) — callers who defer and then never apply faults would leave
  /// the batched path with no executable.
  CrossbarTile(const Tensor& w, float w_absmax, const RramDeviceParams& dev, Rng& rng,
               bool defer_lowering = false, const exec::Target* target = nullptr);

  CrossbarTile(CrossbarTile&&) noexcept;
  CrossbarTile& operator=(CrossbarTile&&) noexcept;
  ~CrossbarTile();

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
  void accumulate_matvec(const float* x, float* y, Rng* read_rng) const;

  /// accumulate_matvec with caller-provided scratch (each >= cols()): the
  /// per-column path without re-allocation. Bit-identical to
  /// accumulate_matvec for the same rng state.
  void accumulate_row(const float* x, float* y, Rng* read_rng, double* ip,
                      double* in_acc, float* currents) const;

  /// Batched path: accumulates `nitems` input vectors into y through the
  /// tile's lowered execution target, item-blocked so conductance loads
  /// amortize across the batch. Input element (item i, wordline r) sits at
  /// x[i * x_item_stride + r * x_word_stride], which covers both row-major
  /// batches (item_stride = ld, word_stride = 1) and column-major ones like
  /// im2col outputs (item_stride = 1, word_stride = ld). Result (item i,
  /// bitline c) accumulates into y[c * ldy + i] when `y_bitline_major`,
  /// else into y[i * ldy + c]; the current block between kernel and readout
  /// tail takes the same orientation. With a bit-exact target each result
  /// is bit-identical to accumulate_matvec (same per-column wordline
  /// accumulation order, same per-item read-noise draws). `item_rngs`
  /// (nullable) holds one read-noise stream per item; `cur` (grown on
  /// demand) and `scratch` are the calling worker's buffers.
  void accumulate_rows(const float* x, int64_t nitems, int64_t x_item_stride,
                       int64_t x_word_stride, float* y, int64_t ldy,
                       bool y_bitline_major, Rng* const* item_rngs,
                       std::vector<float>& cur, exec::Scratch& scratch) const;

  /// The effective (perturbed, quantized) weight matrix (rows=in, cols=out).
  Tensor effective_weights() const;

 private:
  /// Read noise + ADC + scaled accumulation of one current row into y;
  /// shared tail of the scalar and batched paths (exact parity).
  void finish_row(float* currents, float* y, Rng* read_rng) const;

  /// finish_row over a bitline-major block of `nitems` items — current
  /// (item i, bitline c) at cur[c * nitems + i], result into
  /// y[c * ldy + i] — with the same per-element arithmetic and the same
  /// per-item noise draws, vectorized over items.
  void finish_block(float* cur, int64_t nitems, float* y, int64_t ldy,
                    Rng* const* item_rngs) const;

  /// (Re-)lowers the programmed conductances through the execution target
  /// (after programming or fault injection): the target may precompute
  /// whatever representation it executes from (double copies, int8 planes).
  void lower();

  int64_t rows_, cols_;
  float scale_;                 // weight per Siemens
  RramDeviceParams dev_;
  std::vector<float> g_pos_, g_neg_;  // programmed conductances, row-major
  const exec::Target* target_;  // registry-owned, process lifetime
  // The lowered executable the batched path dispatches to. Borrows the g
  // arrays' heap storage, which survives tile moves; any mutation of the
  // arrays must re-lower.
  std::unique_ptr<exec::TileExec> exec_;
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
  /// via remap_stats(). The batched path executes through `target` (nullptr
  /// = exec::default_target() at construction time); the scalar matvec
  /// reference is target-independent.
  CrossbarArray(const Tensor& w_out_in, const RramDeviceParams& dev, Rng& rng,
                int64_t tile = 128, const FaultList* faults = nullptr,
                const remap::RemapParams* remap = nullptr,
                const exec::Target* target = nullptr);

  int64_t in_dim() const { return in_; }
  int64_t out_dim() const { return out_; }
  int64_t num_tiles() const { return static_cast<int64_t>(tiles_.size()); }

  /// The execution target this array was lowered with.
  const exec::Target& target() const { return *target_; }

  /// Whether a read with `read_rng` draws read noise (a stream is given and
  /// the device has read_sigma > 0); such reads consume the stream, so
  /// callers sharing one stream must issue them in order.
  bool reads_noisy(const Rng* read_rng) const {
    return read_rng && dev_.readout.read_sigma > 0.0f;
  }

  /// y = W_eff · x, with optional read noise if `read_rng` provided and the
  /// device has read_sigma > 0.
  Tensor matvec(const Tensor& x, Rng* read_rng = nullptr) const;

  /// Y = X · W_eff^T for X (batch, in) -> Y (batch, out): every row of X is
  /// one wordline-voltage vector. Tile-blocked and threadpool-parallel over
  /// (output-tile group × row block); with read noise off the result is
  /// bit-identical to matvec row by row (same accumulation order). With read
  /// noise on, one u64 is drawn from `read_rng` and independent per-(tile,
  /// row) streams are derived from it, so the output is deterministic for a
  /// given rng state regardless of thread count or row blocking.
  Tensor matmul(const Tensor& x, Rng* read_rng = nullptr) const;

  /// matmul for a column-major batch: X (in, batch) -> Y (out, batch),
  /// column b of X being one wordline-voltage vector and column b of Y its
  /// result. This is the natural layout of im2col inputs and of NCHW
  /// outputs: for one image, Y is the conv's (out_c, OH*OW) plane as is.
  /// The kernels put batch items in their SIMD lanes. Same bit-exactness
  /// and read-noise guarantees as matmul (Y is matmul's result transposed,
  /// for the same rng state).
  Tensor matmul_cols(const Tensor& x_cm, Rng* read_rng = nullptr) const;

  /// Raw-buffer matmul_cols: x_cm holds in_dim() x n floats (column-major
  /// batch), y receives out_dim() x n floats (overwritten).
  void matmul_cols(const float* x_cm, int64_t n, float* y,
                   Rng* read_rng = nullptr) const;

  /// Reconstructs the full effective weight matrix (out, in) for validation.
  Tensor effective_weights() const;

  /// Repair accounting summed over every tile (all-zero when remapping was
  /// off or no defects occurred).
  const remap::RemapStats& remap_stats() const { return remap_stats_; }

 private:
  /// Shared batched path: y is (n, out) for a row-major x, (out, n) for a
  /// column-major one; overwritten.
  void matmul_impl(const float* xd, int64_t n, bool colmajor, float* y,
                   Rng* read_rng) const;

  struct Placed {
    int64_t row0, col0;  // offsets in the (in, out) orientation
    CrossbarTile tile;
  };
  int64_t in_, out_;
  const exec::Target* target_ = nullptr;
  RramDeviceParams dev_;
  remap::RemapStats remap_stats_;
  std::vector<Placed> tiles_;
  // Tile indices grouped by col0 (disjoint output column ranges): the unit
  // of parallelism in matmul. Within a group, tiles stay in construction
  // order (ascending row0) to preserve matvec's accumulation order.
  std::vector<std::vector<size_t>> col_groups_;
};

}  // namespace cn::analog
