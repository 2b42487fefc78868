// Shared pieces of the repository benchmark: the CLI recipe every workload
// trains with, seed derivation, statistics, the span tracer, and the result
// record a run prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "faultsim/campaign.h"
#include "nn/sequential.h"
#include "runtime/model_router.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent sub-seed `k` of the workload seed (test images, chips,
/// campaign and Poisson streams each take their own).
uint64_t derive(uint64_t seed, uint64_t k);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double max_of(const std::vector<double>& v);

/// Peak resident set size of this process so far.
double peak_rss_mb();
/// CPU time (user + system) of every thread of this process so far. Time a
/// thread waits for a core or sleeps is not in it, so work per CPU-second
/// stays steady when a shared host slows wake-ups or steals time.
double cpu_seconds();

// ---------- the CLI recipe (`correctnet_cli faults` defaults) ----------

/// LeNet5-Digits, 800 train / 200 test images, 3 + 3 epochs, 3 compensation
/// epochs, sigma 0.5, fixed-ratio plan, pipeline-internal MC of 4 samples.
/// Training data and every trainer seed are the CLI's fixed ones (nothing
/// is read from disk); the 200 test images are drawn from the workload seed.
cn::data::SplitDataset make_dataset(uint64_t seed);
cn::core::PipelineConfig make_pipeline_config();
cn::core::PipelineResult train_correctnet(const cn::data::SplitDataset& ds,
                                          cn::core::PipelineConfig cfg);

/// The accuracies run_correctnet reports.
std::vector<double> pipeline_accuracies(const cn::core::PipelineResult& r);

/// Tallies training repeats whose accuracies differ from the first one seen.
/// Training is not bit-reproducible at this commit (the parallel
/// Conv2D::backward sums its chunk gradients in start order), so a repeat
/// that differs is reported, not counted as a failed operation.
struct RepeatTally {
  std::vector<double> first;
  int64_t repeats = 0, differing = 0;
  void add(const std::vector<double>& acc);
  void report(const char* what) const;
};

struct Result;

/// The output check of one run_correctnet call: its clean accuracies and
/// every Monte-Carlo sample are recomputed from the models it returned and
/// must match bit for bit.
void check_pipeline_result(const cn::data::SplitDataset& ds,
                           const cn::core::PipelineResult& r, Result& res);

/// The shipped fault grid (examples/fault_campaign.cfg) with remap on and
/// the campaign seed taken from `seed`; `parallel` 0 = auto.
cn::faultsim::Campaign make_campaign(uint64_t seed, int64_t parallel,
                                     const cn::core::PipelineResult& r);
/// Report JSON with wall_s zeroed: the byte-identity key.
std::string report_key(cn::faultsim::CampaignReport rep);

// ---------- results ----------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
};

// ---------- the served lane ----------

/// ServingConfig defaults: 2 chips, 2 workers, max_batch 16, max_wait_us
/// 1500, admission off. Crossbar chips with program_sigma 0.1, read noise
/// off. The lane id is "corrected".
extern const char* const kLane;
cn::runtime::ChipFarmOptions lane_farm_options(uint64_t seed);
cn::analog::RramDeviceParams lane_device();
std::unique_ptr<cn::runtime::ModelRouter> make_router(const cn::nn::Sequential& model,
                                                      uint64_t seed);

/// Offline answers of the served chips: out[c][i] is chip c's batch-1
/// forward of test image i, from a second farm with the lane's seed.
struct ServeRefs {
  std::vector<std::vector<std::vector<float>>> out;
};
ServeRefs make_refs(const cn::nn::Sequential& model, uint64_t seed,
                    const cn::data::Dataset& test);

/// What one traffic phase saw. Every answer is compared bitwise with the
/// offline forward of its image on either served chip.
struct PhaseStats {
  std::vector<double> latency_ms;  // due time -> completion (open loop)
  std::vector<double> late_ms;     // due time -> submit (open loop)
  std::vector<double> window_rps;      // completions per wall second, per window
  std::vector<double> window_cpu_rps;  // completions per CPU-second, per window
  int64_t sent = 0;
  int64_t failed = 0;      // futures that threw
  int64_t mismatched = 0;  // answers not bitwise equal to the offline forward
  int64_t top1 = 0;        // answers whose argmax is the label
  uint64_t requests = 0, batches = 0, full_batches = 0;  // ServerStats deltas
  double p(double q) const { return quantile(latency_ms, q); }
  double avg_batch() const {
    return batches ? static_cast<double>(requests) / static_cast<double>(batches) : 0.0;
  }
};

/// Open loop: Poisson arrivals at `rate` for `seconds`, request images drawn
/// uniformly from `test`, all from `seed`. One generator thread submits on
/// schedule; the calling thread collects.
PhaseStats run_open_loop(cn::runtime::ModelRouter& router, const cn::data::Dataset& test,
                         const ServeRefs& refs, double rate, double seconds, uint64_t seed);
/// Closed loop: kSaturationDepth requests always outstanding, so every batch
/// is full; completions per wall second and per CPU-second over `windows`
/// windows of `window_s`.
PhaseStats run_closed_loop(cn::runtime::ModelRouter& router, const cn::data::Dataset& test,
                           const ServeRefs& refs, double window_s, int windows,
                           uint64_t seed);

/// Fixed offered loads, never derived from a capacity measured in the run.
constexpr double kSparseRate = 100;   // mean batch about 1.2
constexpr double kDenseRate = 3200;   // about 60% of the closed-loop capacity
constexpr int kSaturationDepth = 64;  // 2 workers x max_batch 16, twice over

/// Counts every request of a phase as one operation.
void check_phase(const PhaseStats& ph, const std::string& label, Result& res);

// ---------- spans ----------

struct SpanRec {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  std::string workload;
  double start_us = 0;  // since tracer start
  double end_us = 0;
  double dur_us() const { return end_us - start_us; }
};

/// In-memory span store. Spans are recorded by the benchmark around its own
/// calls into the library; nothing inside the library is instrumented.
/// Disabled, begin()/end() cost one branch.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_workload(std::string w);

  /// Opens a span whose parent is this thread's innermost open span, or
  /// `parent` when given (spans opened on helper threads).
  int64_t begin(const std::string& name, int64_t parent = -2);
  void end(int64_t id);

  /// Self time of every closed span: its duration minus the union of its
  /// children's intervals.
  std::map<int64_t, double> self_us() const;
  /// Self times (or whole durations) in us of the closed spans, grouped by
  /// span name.
  std::map<std::string, std::vector<double>> by_name(bool self) const;

  void write_json(const std::string& path) const;
  size_t size() const;

 private:
  double now_us() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::string workload_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

/// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const std::string& name, int64_t parent = -2);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = -1;
};

/// Prints one labelled figure for a human reader (not part of the JSON).
void say(const char* fmt, ...);

/// The campaign and serve set-up: run_correctnet, then `build` on its
/// result, three times over. Returns the last result and sets `setup_s` to
/// the median time; checks the last result and reports whether the three
/// trained the same networks.
cn::core::PipelineResult timed_setup(
    const cn::data::SplitDataset& ds,
    const std::function<void(const cn::core::PipelineResult&)>& build, double& setup_s,
    Result& res);

// ---------- workloads ----------

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 15;
};

/// Untraced runs: every end-to-end metric.
Result run_campaign(const RunOptions& o);
Result run_serve(const RunOptions& o);
Result run_pipeline(const RunOptions& o);

/// The traced run: every per-layer metric, for all three paths.
Result run_traced(const RunOptions& o, const std::string& workload);

/// Per-layer metric names with unit and direction, in output order.
struct MetricSpec {
  std::string name, unit, better;
};
std::vector<MetricSpec> per_layer_specs();

}  // namespace perfbench
