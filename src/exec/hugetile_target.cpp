// The "huge-tile" execution target: cache-blocked row streaming for large
// crossbar tiles.
//
// The simd family keeps double-precision conductance copies and walks them
// in 8-column strips, touching every g row once per strip — fine while a
// tile's working set fits in cache, but a 1024x1024 tile re-streams 16 MiB
// of doubles per strip pass. This target instead keeps the float arrays
// (half the bytes), splits bitlines into chunks whose double accumulators
// stay cache-resident, and makes one pass over the g rows per chunk,
// converting float->double in-register at the point of use.
//
// Bit-exactness: float->double conversion is exact, accumulators are
// per-(item, bitline) doubles summed in ascending wordline order, and the
// translation unit is contraction-free (src/CMakeLists.txt) — exactly the
// scalar reference's arithmetic, so results are bit-identical to matvec like
// the simd family (adding zero-voltage terms is a bitwise no-op; see the
// argument in simd_target.cpp).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "exec/builtin.h"
#include "exec/target.h"

namespace cn::exec {
namespace {

// 1024 bitlines x 4 items x 2 polarities = 64 KiB of accumulators: resident
// in L2 alongside the streamed g rows. Chunking never changes results, only
// locality (per-bitline sums are independent).
constexpr int64_t kColChunk = 1024;

class HugeTileExec final : public TileExec {
 public:
  explicit HugeTileExec(const TileView& t)
      : gp_(t.g_pos), gn_(t.g_neg), rows_(t.rows), cols_(t.cols) {}

  int64_t row_block(bool) const override { return 4; }

  void currents(const float* x, int64_t nitems, int64_t xis, int64_t xws,
                float* cur, int64_t cis, int64_t ccs,
                Scratch& scratch) const override {
    const int64_t chunk = std::min(kColChunk, cols_);
    double* acc = scratch.doubles(static_cast<size_t>(2 * nitems * chunk));
    for (int64_t c0 = 0; c0 < cols_; c0 += chunk) {
      const int64_t cc = std::min(chunk, cols_ - c0);
      std::fill(acc, acc + 2 * nitems * cc, 0.0);
      for (int64_t r = 0; r < rows_; ++r) {
        const float* gpr = gp_ + r * cols_ + c0;
        const float* gnr = gn_ + r * cols_ + c0;
        for (int64_t i = 0; i < nitems; ++i) {
          const double v = static_cast<double>(x[i * xis + r * xws]);
          double* ap = acc + 2 * i * cc;
          double* an = ap + cc;
          for (int64_t c = 0; c < cc; ++c) {
            ap[c] += v * static_cast<double>(gpr[c]);
            an[c] += v * static_cast<double>(gnr[c]);
          }
        }
      }
      for (int64_t i = 0; i < nitems; ++i) {
        const double* ap = acc + 2 * i * cc;
        const double* an = ap + cc;
        float* out = cur + i * cis + c0 * ccs;
        for (int64_t c = 0; c < cc; ++c)
          out[c * ccs] = static_cast<float>(ap[c] - an[c]);
      }
    }
  }

 private:
  const float *gp_, *gn_;  // borrowed from the tile; re-lowered on mutation
  int64_t rows_, cols_;
};

class HugeTileTarget final : public Target {
 public:
  std::string name() const override { return "huge-tile"; }
  std::string description() const override {
    return "cache-blocked row-streaming float kernels for large tiles "
           "(bit-exact)";
  }
  bool available() const override { return true; }
  bool bit_exact() const override { return true; }
  std::unique_ptr<TileExec> lower(const TileView& tile) const override {
    return std::make_unique<HugeTileExec>(tile);
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Target> make_hugetile_target() {
  return std::make_unique<HugeTileTarget>();
}
}  // namespace detail

}  // namespace cn::exec
