#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/config.h"
#include "core/montecarlo.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "tensor/rng.h"

namespace perfbench {

uint64_t derive(uint64_t seed, uint64_t k) {
  return cn::mix64(seed * 0x9E3779B97F4A7C15ull + k);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------- recipe ----------

cn::data::SplitDataset make_dataset(uint64_t seed) {
  cn::data::DigitsSpec spec;  // the CLI's generator settings, seed 1
  spec.train_count = 800;
  spec.test_count = 200;
  cn::data::SplitDataset ds = cn::data::make_digits(spec);
  spec.seed = derive(seed, 1);
  ds.test = cn::data::make_digits(spec).test;
  return ds;
}

cn::core::PipelineConfig make_pipeline_config() {
  cn::core::PipelineConfig cfg;  // trainer, plan and MC seeds stay the CLI's
  cfg.name = "perfbench";
  cfg.sigma = 0.5f;
  cfg.base_train.epochs = 3;
  cfg.lipschitz_train.epochs = 3;
  cfg.comp_train.epochs = 3;
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = 4;
  cfg.plan_mode = cn::core::PlanMode::kFixedRatio;
  return cfg;
}

cn::core::PipelineResult train_correctnet(const cn::data::SplitDataset& ds,
                                          cn::core::PipelineConfig cfg) {
  auto make_model = [](cn::Rng& rng) { return cn::models::lenet5(1, 28, 10, rng); };
  return cn::core::run_correctnet(make_model, ds.train, ds.test, std::move(cfg));
}

std::vector<double> pipeline_accuracies(const cn::core::PipelineResult& r) {
  std::vector<double> out = {r.clean_acc_base, r.clean_acc_lipschitz};
  for (const cn::core::McResult* m : {&r.base_var, &r.lipschitz_var, &r.corrected_var})
    out.insert(out.end(), m->samples.begin(), m->samples.end());
  return out;
}

void RepeatTally::add(const std::vector<double>& acc) {
  if (first.empty()) first = acc;
  ++repeats;
  if (acc != first) ++differing;
}

void RepeatTally::report(const char* what) const {
  say("%s: %lld of %lld trained networks other than the first (training is not "
      "bit-reproducible; reported, not checked)",
      what, static_cast<long long>(differing), static_cast<long long>(repeats));
}

void check_pipeline_result(const cn::data::SplitDataset& ds,
                           const cn::core::PipelineResult& r, Result& res) {
  const cn::core::PipelineConfig cfg = make_pipeline_config();
  cn::analog::VariationModel vm = cfg.variation;
  vm.sigma = cfg.sigma;  // as run_correctnet sets it
  cn::nn::Sequential base = r.base_model.clone_model();
  cn::nn::Sequential lip = r.lipschitz_model.clone_model();
  res.check(cn::core::evaluate(base, ds.test) == r.clean_acc_base &&
                cn::core::evaluate(lip, ds.test) == r.clean_acc_lipschitz,
            "run_correctnet clean accuracies are those of its returned models");
  auto samples = [&](const cn::nn::Sequential& m) {
    return cn::core::mc_accuracy(m, ds.test, vm, cfg.mc).samples;
  };
  res.check(samples(r.base_model) == r.base_var.samples &&
                samples(r.lipschitz_model) == r.lipschitz_var.samples &&
                samples(r.corrected_model) == r.corrected_var.samples,
            "run_correctnet Monte-Carlo samples are those of its returned models");
}

cn::core::PipelineResult timed_setup(
    const cn::data::SplitDataset& ds,
    const std::function<void(const cn::core::PipelineResult&)>& build, double& setup_s,
    Result& res) {
  std::vector<double> times;
  RepeatTally tally;
  cn::core::PipelineResult r;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    r = train_correctnet(ds, make_pipeline_config());
    build(r);
    times.push_back(seconds_since(t0));
    tally.add(pipeline_accuracies(r));
  }
  setup_s = median(times);
  check_pipeline_result(ds, r, res);
  tally.report("set-up");
  return r;
}

// The grid of examples/fault_campaign.cfg, copied so the benchmark measures
// the same cells whatever later edits that example gets.
constexpr const char* kShippedGrid =
    "chips = 6\n"
    "catastrophic = 0.2\n"
    "program_sigma = 0.1\n"
    "stuck.rates = 0.005, 0.02, 0.05\n"
    "drift.times = 10, 100, 1000\n"
    "ir.alphas = 0.05, 0.1\n"
    "thermal.temps = 350, 400\n"
    "remap = 1\n"
    "log_level = quiet\n";

cn::faultsim::Campaign make_campaign(uint64_t seed, int64_t parallel,
                                     const cn::core::PipelineResult& r) {
  cn::core::KeyValueConfig cfg = cn::core::KeyValueConfig::from_string(kShippedGrid);
  cfg.set("seed", std::to_string(derive(seed, 7) >> 1));
  cfg.set("parallel_scenarios", std::to_string(parallel));
  cn::faultsim::Campaign c = cn::faultsim::campaign_from_config(cfg);
  c.add_model("baseline", r.base_model, false);
  c.add_model("suppressed", r.lipschitz_model, false);
  c.add_model("corrected", r.corrected_model, true);
  return c;
}

std::string report_key(cn::faultsim::CampaignReport rep) {
  rep.wall_s = 0;
  return rep.to_json();
}

// ---------- served lane ----------

const char* const kLane = "corrected";

cn::runtime::ChipFarmOptions lane_farm_options(uint64_t seed) {
  cn::runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;
  fo.seed = derive(seed, 8);
  return fo;
}

cn::analog::RramDeviceParams lane_device() {
  cn::analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  dev.readout.read_sigma = 0.0f;
  return dev;
}

std::unique_ptr<cn::runtime::ModelRouter> make_router(const cn::nn::Sequential& model,
                                                      uint64_t seed) {
  auto router = std::make_unique<cn::runtime::ModelRouter>();
  cn::runtime::InferenceServerOptions so;
  so.max_batch = 16;
  so.max_wait_us = 1500;
  so.workers = 2;
  // The server constructor programs one chip per worker.
  router->add_model(kLane, model, lane_device(), lane_farm_options(seed), so);
  return router;
}

// ---------- tracer ----------

namespace {
// This thread's open spans: id and start time.
thread_local std::vector<std::pair<int64_t, double>> t_open;
}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

void Tracer::set_workload(std::string w) {
  std::lock_guard<std::mutex> lk(mu_);
  workload_ = std::move(w);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

// The start is stamped after the bookkeeping and the end before it, so a
// span times the traced call and not the tracer.
int64_t Tracer::begin(const std::string& name, int64_t parent) {
  if (!enabled()) return -1;
  if (parent == -2) parent = t_open.empty() ? -1 : t_open.back().first;
  int64_t id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, id, parent, workload_, -1.0, -1.0});
  }
  t_open.emplace_back(id, 0.0);
  t_open.back().second = now_us();
  return id;
}

void Tracer::end(int64_t id) {
  if (id < 0) return;
  const double end = now_us();
  double start = end;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == id) {
      start = it->second;
      t_open.erase(std::next(it).base());
      break;
    }
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(id)].start_us = start;
  spans_[static_cast<size_t>(id)].end_us = end;
}

std::map<int64_t, double> Tracer::self_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<int64_t, std::vector<std::pair<double, double>>> kids;
  for (const SpanRec& s : spans_)
    if (s.parent >= 0 && s.end_us >= 0) kids[s.parent].push_back({s.start_us, s.end_us});
  std::map<int64_t, double> out;
  for (const SpanRec& s : spans_) {
    if (s.end_us < 0) continue;
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = -1, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.id] = s.dur_us() - covered;
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::by_name(bool self) const {
  const std::map<int64_t, double> own = self_us();
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [id, us] : own) {
    const SpanRec& s = spans_[static_cast<size_t>(id)];
    out[s.name].push_back(self ? us : s.dur_us());
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void Tracer::write_json(const std::string& path) const {
  const std::map<int64_t, double> self = self_us();
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace to " + path);
  os << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const auto it = self.find(s.id);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\", \"id\": %lld, \"parent\": %lld, \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"self_us\": %.3f}",
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  s.start_us, s.end_us, it == self.end() ? -1.0 : it->second);
    os << "{\"name\": \"" << s.name << "\", \"workload\": \"" << s.workload << buf
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

Span::Span(const std::string& name, int64_t parent)
    : id_(Tracer::global().begin(name, parent)) {}

Span::~Span() { Tracer::global().end(id_); }

// ---------- results ----------

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void say(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace perfbench
