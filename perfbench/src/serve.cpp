// The `serve` workload: traffic into ModelRouter::submit against one crossbar
// lane serving the corrected model.
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "bench.h"
#include "runtime/chip_farm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace perfbench {

ServeRefs make_refs(const cn::nn::Sequential& model, uint64_t seed,
                    const cn::data::Dataset& test) {
  cn::runtime::ChipFarm farm(model, lane_device(), lane_farm_options(seed));
  ServeRefs refs;
  refs.out.resize(static_cast<size_t>(farm.num_chips()));
  for (int64_t c = 0; c < farm.num_chips(); ++c) {
    cn::nn::Sequential& chip = farm.chip(c);
    for (int64_t i = 0; i < test.size(); ++i) {
      const cn::Tensor x =
          test.image(i).reshaped({1, test.channels(), test.height(), test.width()});
      const cn::Tensor y = chip.forward(x, /*train=*/false);
      refs.out[static_cast<size_t>(c)].emplace_back(y.data(), y.data() + y.size());
    }
  }
  return refs;
}

namespace {

// Resolves one answer into the phase's counters.
void settle(std::future<cn::Tensor>& f, int64_t image, const cn::data::Dataset& test,
            const ServeRefs& refs, PhaseStats& ph) {
  try {
    const cn::Tensor y = f.get();
    bool match = false;
    for (const auto& chip : refs.out) {
      const std::vector<float>& r = chip[static_cast<size_t>(image)];
      match = match || (static_cast<size_t>(y.size()) == r.size() &&
                        std::memcmp(y.data(), r.data(), r.size() * sizeof(float)) == 0);
    }
    if (!match) ++ph.mismatched;
    if (cn::argmax_row(y.reshaped({1, y.size()}), 0) == test.labels[static_cast<size_t>(image)])
      ++ph.top1;
  } catch (const std::exception&) {
    ++ph.failed;
  }
}

void take_server_delta(const cn::runtime::ServerStats& before,
                       const cn::runtime::ServerStats& after, PhaseStats& ph) {
  ph.requests = after.requests - before.requests;
  ph.batches = after.batches - before.batches;
  ph.full_batches = after.full_batches - before.full_batches;
}

}  // namespace

PhaseStats run_open_loop(cn::runtime::ModelRouter& router, const cn::data::Dataset& test,
                         const ServeRefs& refs, double rate, double seconds, uint64_t seed) {
  PhaseStats ph;
  cn::Rng rng(seed);
  std::vector<double> due;  // seconds after the phase start
  std::vector<int64_t> img;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
    img.push_back(rng.uniform_int(test.size()));
  }
  const int64_t n = static_cast<int64_t>(due.size());
  ph.sent = n;
  if (n == 0) return ph;

  std::vector<std::future<cn::Tensor>> futs(static_cast<size_t>(n));
  std::vector<Clock::time_point> sent(static_cast<size_t>(n)), done(static_cast<size_t>(n));
  std::atomic<int64_t> submitted{0};
  const cn::runtime::ServerStats before = router.server(kLane).stats();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[static_cast<size_t>(i)]));
  };
  const int64_t phase_span = Tracer::global().begin("serve.open_loop");

  std::thread gen([&] {
    for (int64_t i = 0; i < n; ++i) {
      cn::Tensor x = test.image(img[static_cast<size_t>(i)]);
      std::this_thread::sleep_until(due_at(i));
      const int64_t sp = Tracer::global().begin("router.submit", phase_span);
      sent[static_cast<size_t>(i)] = Clock::now();
      futs[static_cast<size_t>(i)] = router.submit(kLane, std::move(x));
      Tracer::global().end(sp);
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  // Collector: block briefly on the oldest open request, then sweep the
  // rest, so a completion is stamped at most one sweep late.
  std::vector<int64_t> open;
  int64_t next = 0, closed = 0;
  while (closed < n) {
    const int64_t sub = submitted.load(std::memory_order_acquire);
    while (next < sub) open.push_back(next++);
    if (open.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    futs[static_cast<size_t>(open.front())].wait_for(std::chrono::microseconds(100));
    const Clock::time_point now = Clock::now();
    size_t keep = 0;
    for (int64_t i : open) {
      auto& f = futs[static_cast<size_t>(i)];
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        open[keep++] = i;
        continue;
      }
      done[static_cast<size_t>(i)] = now;
      ++closed;
      settle(f, img[static_cast<size_t>(i)], test, refs, ph);
    }
    open.resize(keep);
  }
  gen.join();
  Tracer::global().end(phase_span);
  take_server_delta(before, router.server(kLane).stats(), ph);

  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const Clock::time_point d = due_at(i);
    ph.latency_ms.push_back(std::chrono::duration<double, std::milli>(done[k] - d).count());
    ph.late_ms.push_back(std::chrono::duration<double, std::milli>(sent[k] - d).count());
  }
  return ph;
}

PhaseStats run_closed_loop(cn::runtime::ModelRouter& router, const cn::data::Dataset& test,
                           const ServeRefs& refs, double window_s, int windows,
                           uint64_t seed) {
  PhaseStats ph;
  cn::Rng rng(seed);
  std::deque<std::pair<std::future<cn::Tensor>, int64_t>> open;
  auto submit = [&] {
    const int64_t im = rng.uniform_int(test.size());
    open.emplace_back(router.submit(kLane, test.image(im)), im);
    ++ph.sent;
  };
  const cn::runtime::ServerStats before = router.server(kLane).stats();
  Span span("serve.closed_loop");
  while (static_cast<int>(open.size()) < kSaturationDepth) submit();
  for (int w = 0; w < windows; ++w) {
    int64_t completed = 0;
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    while (seconds_since(t0) < window_s) {
      settle(open.front().first, open.front().second, test, refs, ph);
      open.pop_front();
      ++completed;
      submit();
    }
    ph.window_rps.push_back(static_cast<double>(completed) / seconds_since(t0));
    ph.window_cpu_rps.push_back(static_cast<double>(completed) / (cpu_seconds() - c0));
  }
  while (!open.empty()) {
    settle(open.front().first, open.front().second, test, refs, ph);
    open.pop_front();
  }
  take_server_delta(before, router.server(kLane).stats(), ph);
  return ph;
}

void check_phase(const PhaseStats& ph, const std::string& label, Result& res) {
  res.attempted += ph.sent;
  res.failed += ph.failed + ph.mismatched;
  if (ph.failed + ph.mismatched > 0)
    std::fprintf(stderr,
                 "perfbench: %s: %lld futures failed, %lld answers differ from the "
                 "offline forward\n",
                 label.c_str(), static_cast<long long>(ph.failed),
                 static_cast<long long>(ph.mismatched));
  res.check(static_cast<int64_t>(ph.requests) == ph.sent,
            label + ": the server counted every request");
}

Result run_serve(const RunOptions& o) {
  Result res;
  const cn::data::SplitDataset ds = make_dataset(o.seed);
  double setup_s = 0;
  std::unique_ptr<cn::runtime::ModelRouter> router;
  const cn::core::PipelineResult r = timed_setup(
      ds,
      [&](const cn::core::PipelineResult& trained) {
        router.reset();  // one lane at a time
        router = make_router(trained.corrected_model, o.seed);
      },
      setup_s, res);
  const ServeRefs refs = make_refs(r.corrected_model, o.seed, ds.test);

  const PhaseStats sparse =
      run_open_loop(*router, ds.test, refs, kSparseRate, 0.3 * o.seconds, derive(o.seed, 20));
  const int windows = std::max(4, static_cast<int>(o.seconds));
  const PhaseStats sat =
      run_closed_loop(*router, ds.test, refs, 0.5 * o.seconds / windows, windows,
                      derive(o.seed, 21));
  check_phase(sparse, "sparse phase", res);
  check_phase(sat, "closed-loop phase", res);

  const double capacity = median(sat.window_rps);
  const double per_cpu_s = median(sat.window_cpu_rps);
  const double quality = static_cast<double>(sparse.top1 + sat.top1) /
                         static_cast<double>(sparse.sent + sat.sent);
  say("serve.sparse_p50_ms %.4f ms  p99 %.4f ms  (%lld requests at %.0f req/s, mean "
      "batch %.2f)",
      sparse.p(0.5), sparse.p(0.99), static_cast<long long>(sparse.sent), kSparseRate,
      sparse.avg_batch());
  say("serve.capacity_rps %.1f req/s  (median of %d windows, min %.1f, max %.1f; mean "
      "batch %.2f); %.1f requests per CPU-second",
      capacity, windows, quantile(sat.window_rps, 0), max_of(sat.window_rps),
      sat.avg_batch(), per_cpu_s);
  say("serve.top1 %.6f over %lld answers", quality,
      static_cast<long long>(sparse.sent + sat.sent));

  res.set("setup_s", setup_s, "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("work_per_cpu_s", per_cpu_s, "1/s");
  res.set("quality", quality, "ratio");
  res.set("latency_ms", sparse.p(0.5), "ms");
  return res;
}

}  // namespace perfbench
