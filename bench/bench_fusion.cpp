// bench_fusion: the fused eval plan's perf floor.
//
// Trains a LeNet5-Digits model briefly, then times core::evaluate over the
// test set with the fusion knob forced off vs on. Timed reps interleave the
// two sides, so clock drift hits both equally, and each side keeps its
// fastest of 15 multi-eval samples: a ~60 ms sample is easily hit by a
// neighbour's burst, and a handful of them let one such burst decide the
// ratio. Every fold that engages (relu epilogues, both pools into the conv
// epilogues, the flatten reshape) is bitwise-exact by contract, asserted on
// sampled images. `fusion_speedup` gates the bench: the fused plan exists
// to win wall-clock, so below 1.15x fails. Never
// run it concurrently with other jobs; a contended box skews the ratio.
//
// Takes no flags. Writes BENCH_fusion.json (see bench::BenchJson); exits 1
// on a parity failure or a speedup below the floor.
#include <algorithm>
#include <chrono>
#include <cstring>

#include "common.h"
#include "nn/fusion.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace cn;
  constexpr int64_t kTestImages = 120;
  constexpr int kReps = 15;
  constexpr int kInner = 6;  // evaluates per timed sample
  constexpr int64_t kSampled = 16;
  constexpr double kFloor = 1.15;
  std::printf("== bench_fusion (%lld test images) ==\n",
              static_cast<long long>(kTestImages));

  data::DigitsSpec spec;
  spec.train_count = 800;
  spec.test_count = kTestImages;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(2023);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  std::printf("  [train] LeNet5-Digits (%d epochs)...\n", cfg.epochs);
  core::train(model, ds.train, ds.test, cfg);

  nn::set_fusion_enabled(false);
  (void)core::evaluate(model, ds.test, 128);  // warm-up (caches)
  nn::set_fusion_enabled(true);
  (void)core::evaluate(model, ds.test, 128);  // warm-up (plan build)
  double t_unfused = 1e100, t_fused = 1e100;
  for (int r = 0; r < kReps; ++r) {
    for (const bool fused : {false, true}) {
      nn::set_fusion_enabled(fused);
      const auto t0 = Clock::now();
      for (int k = 0; k < kInner; ++k) (void)core::evaluate(model, ds.test, 128);
      double& best = fused ? t_fused : t_unfused;
      best = std::min(best, seconds_since(t0) / kInner);
    }
  }
  auto forward_image = [&](int64_t i, bool fused) {
    Tensor img = ds.test.image(i);
    img.reshape({1, ds.test.channels(), ds.test.height(), ds.test.width()});
    nn::set_fusion_enabled(fused);
    return model.forward(img, false);
  };
  bool bit_identical = true;
  for (int64_t i = 0; i < kSampled && bit_identical; ++i) {
    const Tensor a = forward_image(i, false);
    const Tensor b = forward_image(i, true);
    bit_identical = a.size() == b.size() &&
                    std::memcmp(a.data(), b.data(),
                                static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  }
  nn::reset_fusion_enabled();
  const double speedup = t_fused > 0 ? t_unfused / t_fused : 0.0;
  std::printf("  [fusion] lenet5 unfused: %.4fs  fused: %.4fs  "
              "speedup: %.2fx  bit-identical (%lld images): %s\n",
              t_unfused, t_fused, speedup, static_cast<long long>(kSampled),
              bit_identical ? "yes" : "NO");

  bench::BenchJson json("fusion");
  json.set("test_images", kTestImages);
  json.set("fusion_unfused_s", t_unfused);
  json.set("fusion_fused_s", t_fused);
  json.set("fusion_speedup", speedup);
  json.set("fusion_bit_identical", bit_identical);
  json.write();

  if (!bit_identical) {
    std::printf("FAIL: fused LeNet5 forward diverged from the unfused path\n");
    return 1;
  }
  if (speedup < kFloor) {
    std::printf("FAIL: fusion speedup %.2fx below the %.2fx floor\n", speedup,
                kFloor);
    return 1;
  }
  std::printf("done.\n");
  return 0;
}
