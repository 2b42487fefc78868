// The "int8" execution target: the digital half of the batched crossbar path
// runs int8 end-to-end, modeling an accelerator whose MAC datapath is
// integer. Lowering quantizes each tile's differential conductances
// (g+ - g-) to int8 with one symmetric per-tile scale; at execution time
// each input vector is quantized with its own symmetric scale (the same
// observed-range idea as the DAC model in analog/quant.*), products
// accumulate in int32, and currents dequantize with the product of the two
// scales.
//
// Accuracy bounds (documented in docs/ARCHITECTURE.md, pinned by
// tests/test_crossbar_exec.cpp): both quantizers are symmetric mid-tread
// grids with step s = max|.|/127, so each operand carries at most s/2
// absolute error. Per bitline current over R wordlines the error is bounded
// by R * (s_x/2 * max|g_diff| + s_w/2 * max|x| + s_x*s_w/4) — relative to
// the full-scale current, about R * 1/127 in the worst case and ~1% in
// practice (errors cancel statistically across wordlines). Not bit-exact by
// construction; the parity suite asserts pinned tolerances instead.
//
// The int32 accumulator is exact: |sum| <= rows * 127 * 127, so lowering
// rejects tiles taller than 2^31 / 127^2 wordlines (~133k — far beyond any
// physical tile) rather than risk silent wraparound.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analog/quant.h"
#include "exec/builtin.h"
#include "exec/target.h"

namespace cn::exec {
namespace {

constexpr int64_t kMaxRows = (int64_t{1} << 31) / (127 * 127);

class Int8TileExec final : public TileExec {
 public:
  explicit Int8TileExec(const TileView& t) : rows_(t.rows), cols_(t.cols) {
    if (rows_ > kMaxRows)
      throw std::runtime_error(
          "int8 target: tile has " + std::to_string(rows_) +
          " wordlines; int32 accumulation is exact only up to " +
          std::to_string(kMaxRows));
    const size_t n = static_cast<size_t>(rows_ * cols_);
    std::vector<float> diff(n);
    for (size_t i = 0; i < n; ++i) diff[i] = t.g_pos[i] - t.g_neg[i];
    qw_.resize(n);
    w_scale_ = analog::quantize_symmetric_int8(diff.data(),
                                               static_cast<int64_t>(n),
                                               /*stride=*/1, qw_.data());
  }

  int64_t row_block(bool) const override { return 8; }

  void currents(const float* x, int64_t nitems, int64_t xis, int64_t xws,
                float* cur, int64_t cis, int64_t ccs,
                Scratch& scratch) const override {
    int8_t* qx = scratch.bytes(static_cast<size_t>(rows_));
    int32_t* acc = scratch.ints(static_cast<size_t>(cols_));
    for (int64_t i = 0; i < nitems; ++i) {
      float* out = cur + i * cis;
      const float x_scale =
          analog::quantize_symmetric_int8(x + i * xis, rows_, xws, qx);
      if (x_scale == 0.0f || w_scale_ == 0.0f) {
        for (int64_t c = 0; c < cols_; ++c) out[c * ccs] = 0.0f;
        continue;
      }
      for (int64_t c = 0; c < cols_; ++c) acc[c] = 0;
      for (int64_t r = 0; r < rows_; ++r) {
        const int32_t v = qx[r];
        if (v == 0) continue;
        const int8_t* qwr = qw_.data() + r * cols_;
        for (int64_t c = 0; c < cols_; ++c) acc[c] += v * qwr[c];
      }
      const float dq = w_scale_ * x_scale;
      for (int64_t c = 0; c < cols_; ++c)
        out[c * ccs] = static_cast<float>(acc[c]) * dq;
    }
  }

 private:
  int64_t rows_, cols_;
  float w_scale_ = 0.0f;
  std::vector<int8_t> qw_;
};

class Int8Target final : public Target {
 public:
  std::string name() const override { return "int8"; }
  std::string description() const override {
    return "digital half quantized to int8 end-to-end (approximate; pinned "
           "accuracy bounds)";
  }
  bool available() const override { return true; }
  bool bit_exact() const override { return false; }
  std::unique_ptr<TileExec> lower(const TileView& tile) const override {
    return std::make_unique<Int8TileExec>(tile);
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Target> make_int8_target() {
  return std::make_unique<Int8Target>();
}
}  // namespace detail

}  // namespace cn::exec
