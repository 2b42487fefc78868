// google-benchmark microbenchmarks for the compute kernels underneath the
// experiments: matmul, conv2d forward/backward, im2col, crossbar MVM, the
// batched crossbar matmul at every ISA level the host runs, the
// conv-shaped crossbar legs, and Monte-Carlo perturbation sampling.
//
// Writes BENCH_kernels.json (see bench::BenchJson): GFLOP/s of the
// conv-shaped crossbar legs next to the 512x512 per-level matmul legs, so
// the narrow-tile regime of a LeNet conv shows beside the kernel peak.
// Record-only: no gate reads these numbers.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "analog/crossbar.h"
#include "analog/variation.h"
#include "common.h"
#include "exec/simd.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/threadpool.h"

namespace {

using namespace cn;

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  Tensor c({n, n});
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  const int64_t hw = state.range(0);
  ConvGeom g{16, hw, hw, 3, 3, 1, 1};
  Rng rng(2);
  Tensor img({16 * hw * hw});
  rng.fill_normal(img, 0.0f, 1.0f);
  Tensor cols({16 * 9 * g.out_h() * g.out_w()});
  for (auto _ : state) {
    im2col(img.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

void BM_Conv2DForward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(3);
  nn::Conv2D conv(c, c, 3, 1, 1, 32, 32, "bench");
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, c, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2DForward)->Arg(16)->Arg(32);

void BM_Conv2DBackward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(4);
  nn::Conv2D conv(c, c, 3, 1, 1, 16, 16, "bench");
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, c, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = conv.forward(x, true);
  for (auto _ : state) {
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2DBackward)->Arg(16)->Arg(32);

void BM_CrossbarMatvec(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  analog::CrossbarArray xbar(w, dev, rng, 128);
  Tensor x({n});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = xbar.matvec(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_CrossbarMatvec)->Arg(128)->Arg(512);

// The batched crossbar matmul with its tiles lowered at one pinned simd
// level; registered per level this host runs in main.
void BM_CrossbarMatmulLevel(benchmark::State& state, int level) {
  const int64_t n = state.range(0), batch = 32;
  Rng rng(7);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  Rng prog(8);
  exec::simd::pin_level(level);
  const analog::CrossbarArray xbar(w, dev, prog, /*tile=*/128);
  exec::simd::pin_level(-1);
  Tensor x({batch, n});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = xbar.matmul(x);
    benchmark::DoNotOptimize(y.data());
  }
  // 4 flops per cell per item (differential pair: 2 products + 2 adds).
  state.SetItemsProcessed(state.iterations() * 4 * n * n * batch);
}

// A LeNet conv's crossbar work for 128 images, one matmul_cols per image as
// CrossbarConv2D issues it: (in x out) array, P output pixels per image.
// Images run in parallel across the pool and each image's matmul inline on
// its worker — the campaign's shape (one chip forward per worker). GFLOP/s
// counts 4 flops per cell per pixel (differential pair: 2 products + 2 adds)
// over wall time.
void BM_CrossbarConvShape(benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1), P = state.range(2);
  constexpr int64_t kImages = 128;
  Rng rng(9);
  Tensor w({out, in});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  Rng prog(10);
  const analog::CrossbarArray xbar(w, dev, prog, /*tile=*/128);
  Tensor x({kImages, in, P}), y({kImages, out, P});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    parallel_for(0, kImages, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i)
        xbar.matmul_cols(x.data() + i * in * P, P, y.data() + i * out * P);
    });
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      4e-9 * static_cast<double>(in * out * P * kImages),
      benchmark::Counter::kIsIterationInvariantRate);
}
// LeNet conv1 (5x5x1 kernels, 6 maps, 28x28 outputs) and conv2 (5x5x6, 16
// maps, 10x10 outputs).
BENCHMARK(BM_CrossbarConvShape)->Args({25, 6, 784})->Args({150, 16, 100})->UseRealTime();

void BM_VariationSampling(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  for (auto _ : state) {
    Tensor f = vm.sample_factors(w, rng);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_VariationSampling)->Arg(128)->Arg(512);

// Console output as usual, plus the GFLOP/s of the crossbar legs collected
// for BENCH_kernels.json.
class GflopsCapture : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const std::string name = r.benchmark_name();
      if (auto it = r.counters.find("GFLOPS"); it != r.counters.end())
        gflops[name] = it->second.value;
      else if (name.rfind("BM_CrossbarMatmul/", 0) == 0)
        if (auto ips = r.counters.find("items_per_second"); ips != r.counters.end())
          gflops[name] = ips->second.value * 1e-9;
    }
  }
  std::map<std::string, double> gflops;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the per-level crossbar legs are
// registered for every simd level this host runs, and the crossbar legs'
// GFLOP/s is written to BENCH_kernels.json.
int main(int argc, char** argv) {
  for (int level = 0; level <= cn::exec::simd::max_level(); ++level) {
    const std::string name =
        std::string("BM_CrossbarMatmul/") + cn::exec::simd::level_name(level);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [level](benchmark::State& s) { BM_CrossbarMatmulLevel(s, level); })
        ->Arg(128)
        ->Arg(512)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  GflopsCapture reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  cn::bench::BenchJson json("kernels");
  for (const auto& [name, v] : reporter.gflops) json.set(name + ".gflops", v);
  json.write();
  return 0;
}
