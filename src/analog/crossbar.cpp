#include "analog/crossbar.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace cn::analog {

CrossbarTile::CrossbarTile(const Tensor& w, float w_absmax, const RramDeviceParams& dev,
                           Rng& rng, bool defer_lowering)
    : rows_(w.dim(0)), cols_(w.dim(1)), dev_(dev) {
  if (w.rank() != 2) throw std::invalid_argument("CrossbarTile: weight must be rank-2");
  if (dev.g_max <= dev.g_min)
    throw std::invalid_argument("CrossbarTile: g_max must exceed g_min");
  const float g_range = dev.g_max - dev.g_min;
  // scale maps conductance difference to weight: w = scale * (g+ - g-).
  scale_ = (w_absmax > 0.0f) ? w_absmax / g_range : 1.0f;

  const int64_t n = rows_ * cols_;
  g_pos_.resize(static_cast<size_t>(n));
  g_neg_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float wv = w[i];
    // Differential mapping: positive weights raise G+, negative raise G-.
    float gp = dev.g_min + (wv > 0.0f ? wv / scale_ : 0.0f);
    float gn = dev.g_min + (wv < 0.0f ? -wv / scale_ : 0.0f);
    gp = std::min(gp, dev.g_max);
    gn = std::min(gn, dev.g_max);
    if (dev.conductance_levels > 1) {
      gp = quantize_uniform(gp, dev.g_min, dev.g_max, dev.conductance_levels);
      gn = quantize_uniform(gn, dev.g_min, dev.g_max, dev.conductance_levels);
    }
    if (dev.program_sigma > 0.0f) {
      gp *= static_cast<float>(rng.lognormal(0.0, dev.program_sigma));
      gn *= static_cast<float>(rng.lognormal(0.0, dev.program_sigma));
    }
    g_pos_[static_cast<size_t>(i)] = gp;
    g_neg_[static_cast<size_t>(i)] = gn;
  }
  if (!defer_lowering) lower();
}

void CrossbarTile::lower() {
  exec_ = exec::TileExec(g_pos_.data(), g_neg_.data(), rows_, cols_,
                         exec::simd::level());
  // Lowering volume (tiles and conductance bytes consumed). This runs per
  // tile per chip build, so each counter is resolved once.
  static obs::Counter& tiles = obs::metrics().counter("exec.tiles");
  static obs::Counter& bytes = obs::metrics().counter("exec.bytes");
  tiles.add(1);
  bytes.add(static_cast<uint64_t>(rows_) * static_cast<uint64_t>(cols_) * 2 *
            sizeof(float));
}

void CrossbarTile::apply_faults(const FaultList& faults,
                                const FaultModel::TileCtx& ctx, Rng& rng,
                                const remap::RemapParams* remap,
                                remap::RemapStats* stats) {
  if (!remap || !remap->active()) {
    for (const FaultModel* f : faults)
      f->apply(g_pos_.data(), g_neg_.data(), ctx, dev_, rng);
    lower();
    return;
  }
  // Repairs run per model, immediately after that model's defect map is
  // known: repair targets are the conductances the model actually disturbed
  // (so stuck-at stacked on drift restores the *drifted* values, not
  // stale pre-drift ones), and soft nonidealities later in the list age
  // repaired devices exactly like every other device. The tile's spare
  // budget is shared across the whole list.
  remap::RemapParams budget = *remap;
  std::vector<float> pre_pos, pre_neg;
  for (const FaultModel* f : faults) {
    if (!f->has_defect_map()) {
      // Soft nonideality: nothing to repair, no snapshot needed.
      f->apply(g_pos_.data(), g_neg_.data(), ctx, dev_, rng);
      continue;
    }
    pre_pos = g_pos_;
    pre_neg = g_neg_;
    remap::DefectMap defects;
    f->apply_mapped(g_pos_.data(), g_neg_.data(), ctx, dev_, rng, &defects);
    if (defects.empty()) continue;
    const remap::RemapController ctl(budget);
    const remap::RemapPlan plan = ctl.plan(defects, rows_, cols_,
                                           pre_pos.data(), pre_neg.data(),
                                           dev_.g_min, dev_.g_max);
    const remap::RemapStats s = ctl.apply(plan, g_pos_.data(), g_neg_.data(),
                                          pre_pos.data(), pre_neg.data());
    budget.spare_rows -= s.spare_rows_used;
    budget.spare_cols -= s.spare_cols_used;
    if (stats) *stats += s;
  }
  lower();
}

void CrossbarTile::accumulate_matvec(const float* x, float* y,
                                     const Reads& reads) const {
  // Currents on positive/negative bitlines.
  std::vector<double> ip_buf(static_cast<size_t>(cols_), 0.0);
  std::vector<double> in_buf(static_cast<size_t>(cols_), 0.0);
  std::vector<float> cur(static_cast<size_t>(cols_));
  double* ip = ip_buf.data();
  double* in = in_buf.data();
  for (int64_t r = 0; r < rows_; ++r) {
    const float v = x[r];
    if (v == 0.0f) continue;
    const float* gp = g_pos_.data() + r * cols_;
    const float* gn = g_neg_.data() + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      ip[c] += static_cast<double>(v) * gp[c];
      in[c] += static_cast<double>(v) * gn[c];
    }
  }
  for (int64_t c = 0; c < cols_; ++c)
    cur[static_cast<size_t>(c)] = static_cast<float>(ip[c] - in[c]);
  finish_row(cur.data(), y, reads, 0);
}

void CrossbarTile::finish_row(float* currents, float* y, const Reads& reads,
                              int64_t item) const {
  if (reads && dev_.readout.read_sigma > 0.0f) {
    Rng rng(reads->stream(item));
    for (int64_t c = 0; c < cols_; ++c)
      currents[c] *= 1.0f + static_cast<float>(rng.normal(0.0, dev_.readout.read_sigma));
  }
  if (dev_.readout.adc_bits > 0) {
    // Full scale: every row driving g_max differentially.
    const float fs = static_cast<float>(rows_) * (dev_.g_max - dev_.g_min);
    for (int64_t c = 0; c < cols_; ++c)
      currents[c] = quantize_uniform(currents[c], -fs, fs, 1 << dev_.readout.adc_bits);
  }
  for (int64_t c = 0; c < cols_; ++c) y[c] += scale_ * currents[c];
}

void CrossbarTile::finish_block(float* cur, int64_t nitems, float* y, int64_t ldy,
                                const Reads& reads, int64_t item0) const {
  // Bitline-major block: (item i, bitline c) at cur[c * nitems + i]. Each
  // item draws its read noise in bitline order from its own read's stream,
  // exactly as finish_row does for one item.
  const int64_t n = nitems * cols_;
  if (reads && dev_.readout.read_sigma > 0.0f) {
    for (int64_t i = 0; i < nitems; ++i) {
      Rng rng(reads->stream(item0 + i));
      for (int64_t c = 0; c < cols_; ++c)
        cur[c * nitems + i] *=
            1.0f + static_cast<float>(rng.normal(0.0, dev_.readout.read_sigma));
    }
  }
  if (dev_.readout.adc_bits > 0) {
    const float fs = static_cast<float>(rows_) * (dev_.g_max - dev_.g_min);
    for (int64_t k = 0; k < n; ++k)
      cur[k] = quantize_uniform(cur[k], -fs, fs, 1 << dev_.readout.adc_bits);
  }
  const float scale = scale_;  // a local, so the y stores cannot alias it
  for (int64_t c = 0; c < cols_; ++c) {
    const float* cc = cur + c * nitems;
    float* yc = y + c * ldy;
    for (int64_t i = 0; i < nitems; ++i) yc[i] += scale * cc[i];
  }
}

void CrossbarTile::accumulate_rows(const float* x, int64_t nitems,
                                   int64_t x_item_stride, int64_t x_word_stride,
                                   float* y, int64_t ldy, bool y_bitline_major,
                                   const Reads& reads, std::vector<float>& cur,
                                   exec::Scratch& scratch) const {
  // Item-blocking width never changes results (items accumulate
  // independently), only register/cache pressure.
  const int64_t block = exec_.row_block(x_item_stride == 1);
  if (cur.size() < static_cast<size_t>(block * cols_))
    cur.resize(static_cast<size_t>(block * cols_));
  for (int64_t done = 0; done < nitems; done += block) {
    const int64_t rb = std::min(block, nitems - done);
    const float* xb = x + done * x_item_stride;
    if (y_bitline_major) {
      exec_.currents(xb, rb, x_item_stride, x_word_stride, cur.data(), 1, rb,
                     scratch);
      finish_block(cur.data(), rb, y + done, ldy, reads, done);
      continue;
    }
    exec_.currents(xb, rb, x_item_stride, x_word_stride, cur.data(), cols_, 1,
                   scratch);
    for (int64_t i = 0; i < rb; ++i)
      finish_row(cur.data() + i * cols_, y + (done + i) * ldy, reads, done + i);
  }
}

Tensor CrossbarTile::effective_weights() const {
  Tensor w({rows_, cols_});
  for (int64_t i = 0; i < rows_ * cols_; ++i)
    w[i] = scale_ * (g_pos_[static_cast<size_t>(i)] - g_neg_[static_cast<size_t>(i)]);
  return w;
}

CrossbarArray::CrossbarArray(const Tensor& w_out_in, const RramDeviceParams& dev,
                             Rng& rng, int64_t tile, const FaultList* faults,
                             const remap::RemapParams* remap) {
  if (w_out_in.rank() != 2)
    throw std::invalid_argument("CrossbarArray: weight must be rank-2");
  if (tile < 1) throw std::invalid_argument("CrossbarArray: tile must be positive");
  dev_ = dev;
  // Nonideality models may rescale device parameters (e.g. temperature-
  // dependent sigmas) before anything is programmed.
  if (faults)
    for (const FaultModel* f : *faults) f->prepare_device(dev_);
  out_ = w_out_in.dim(0);
  in_ = w_out_in.dim(1);
  const float absmax = max_abs(w_out_in);
  // Orient as (in, out): wordlines = inputs.
  Tensor w_in_out = transpose(w_out_in);
  for (int64_t r0 = 0; r0 < in_; r0 += tile) {
    const int64_t rr = std::min(tile, in_ - r0);
    for (int64_t c0 = 0; c0 < out_; c0 += tile) {
      const int64_t cc = std::min(tile, out_ - c0);
      Tensor sub({rr, cc});
      for (int64_t r = 0; r < rr; ++r)
        for (int64_t c = 0; c < cc; ++c)
          sub[r * cc + c] = w_in_out[(r0 + r) * out_ + (c0 + c)];
      const bool have_faults = faults && !faults->empty();
      tiles_.push_back(Placed{r0, c0, CrossbarTile(sub, absmax, dev_, rng,
                                                   /*defer_lowering=*/have_faults)});
      if (have_faults) {
        FaultModel::TileCtx ctx;
        ctx.rows = rr;
        ctx.cols = cc;
        ctx.row0 = r0;
        ctx.col0 = c0;
        ctx.array_rows = in_;
        ctx.array_cols = out_;
        tiles_.back().tile.apply_faults(*faults, ctx, rng, remap,
                                        &remap_stats_);
      }
    }
  }
  // Group tiles by output column block; construction order (ascending row0)
  // is preserved inside each group so matmul accumulates like matvec.
  const int64_t ncol_groups = (out_ + tile - 1) / tile;
  col_groups_.resize(static_cast<size_t>(ncol_groups));
  for (size_t t = 0; t < tiles_.size(); ++t)
    col_groups_[static_cast<size_t>(tiles_[t].col0 / tile)].push_back(t);
}

namespace {

// Worker-owned buffers of the batched path, reused across calls so matmul
// work units never allocate in steady state. One set per thread: a thread
// runs one work unit at a time (nested parallel_for runs inline).
struct MatmulScratch {
  std::vector<float> cur;
  exec::Scratch exec;
};

MatmulScratch& worker_scratch() {
  thread_local MatmulScratch s;
  return s;
}

// The key tile t of an array reads under (none stays none).
Reads tile_reads(const Reads& reads, size_t t) {
  return reads ? Reads(reads->for_tile(t)) : std::nullopt;
}

}  // namespace

int CrossbarArray::level() const {
  return tiles_.empty() ? exec::simd::level() : tiles_.front().tile.level();
}

Tensor CrossbarArray::matvec(const Tensor& x, const Reads& reads) const {
  if (x.size() != in_) throw std::invalid_argument("CrossbarArray::matvec: size mismatch");
  Tensor y({out_});
  // DAC quantization applies once to the shared input voltages.
  Tensor x_q = x;
  dac_quantize(x_q, dev_.readout.dac_bits);
  for (size_t t = 0; t < tiles_.size(); ++t) {
    const Placed& p = tiles_[t];
    p.tile.accumulate_matvec(x_q.data() + p.row0, y.data() + p.col0,
                             tile_reads(reads, t));
  }
  return y;
}

Tensor CrossbarArray::matmul(const Tensor& x, const Reads& reads) const {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("CrossbarArray::matmul: input must be (batch, in)");
  const int64_t n = x.dim(0);
  // DAC quantization is per input vector (each row sees its own range),
  // exactly as matvec applies it.
  Tensor x_q;
  const float* xd = x.data();
  if (dev_.readout.dac_bits > 0 && n > 0) {
    x_q = x;
    for (int64_t i = 0; i < n; ++i)
      dac_quantize_span(x_q.data() + i * in_, in_, dev_.readout.dac_bits);
    xd = x_q.data();
  }
  Tensor y({n, out_});
  matmul_impl(xd, n, /*colmajor=*/false, y.data(), reads);
  return y;
}

Tensor CrossbarArray::matmul_cols(const Tensor& x_cm, const Reads& reads) const {
  if (x_cm.rank() != 2 || x_cm.dim(0) != in_)
    throw std::invalid_argument(
        "CrossbarArray::matmul_cols: input must be (in, batch)");
  const int64_t n = x_cm.dim(1);
  Tensor y({out_, n});
  matmul_cols(x_cm.data(), n, y.data(), reads);
  return y;
}

void CrossbarArray::matmul_cols(const float* x_cm, int64_t n, float* y,
                                const Reads& reads) const {
  Tensor x_q;
  if (dev_.readout.dac_bits > 0 && n > 0) {
    // DAC ranges are per input vector, i.e. per column here.
    x_q = Tensor({in_, n});
    std::copy(x_cm, x_cm + in_ * n, x_q.data());
    for (int64_t i = 0; i < n; ++i)
      dac_quantize_span(x_q.data() + i, in_, dev_.readout.dac_bits, n);
    x_cm = x_q.data();
  }
  matmul_impl(x_cm, n, /*colmajor=*/true, y, reads);
}

void CrossbarArray::matmul_impl(const float* xd, int64_t n, bool colmajor,
                                float* y, const Reads& reads) const {
  std::fill(y, y + n * out_, 0.0f);
  if (n == 0) return;
  const int64_t row_block = 64;
  const int64_t nblocks = (n + row_block - 1) / row_block;
  const int64_t ngroups = static_cast<int64_t>(col_groups_.size());
  parallel_for(0, ngroups * nblocks, [&](int64_t lo, int64_t hi) {
    MatmulScratch& s = worker_scratch();
    for (int64_t w = lo; w < hi; ++w) {
      const auto& group = col_groups_[static_cast<size_t>(w / nblocks)];
      const int64_t r0 = (w % nblocks) * row_block;
      const int64_t r1 = std::min(n, r0 + row_block);
      for (size_t t : group) {
        const Placed& p = tiles_[t];
        // Row r0 of this block is read first + r0 (its tile's key).
        Reads block_reads = tile_reads(reads, t);
        if (block_reads) block_reads->first += static_cast<uint64_t>(r0);
        // Column-major batches keep their orientation end to end: items
        // (conv output pixels) are contiguous in x, in the kernel's lanes,
        // and in y's bitline rows.
        if (colmajor)
          p.tile.accumulate_rows(xd + p.row0 * n + r0, r1 - r0, 1, n,
                                 y + p.col0 * n + r0, n, /*y_bitline_major=*/true,
                                 block_reads, s.cur, s.exec);
        else
          p.tile.accumulate_rows(xd + r0 * in_ + p.row0, r1 - r0, in_, 1,
                                 y + r0 * out_ + p.col0, out_,
                                 /*y_bitline_major=*/false, block_reads, s.cur,
                                 s.exec);
      }
    }
  }, 1);
}

Tensor CrossbarArray::effective_weights() const {
  Tensor w({out_, in_});
  for (const Placed& p : tiles_) {
    Tensor sub = p.tile.effective_weights();  // (rows=in slice, cols=out slice)
    for (int64_t r = 0; r < sub.dim(0); ++r)
      for (int64_t c = 0; c < sub.dim(1); ++c)
        w[(p.col0 + c) * in_ + (p.row0 + r)] = sub[r * sub.dim(1) + c];
  }
  return w;
}

}  // namespace cn::analog
