#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/slo.h"
#include "obs/snapshot_stream.h"
#include "obs/trace.h"

namespace cn::obs {

namespace {

// Number formatting matching bench::BenchJson (%.6g).
std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// Index of the most significant set bit (u > 0).
int msb_index(uint64_t u) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(u);
#else
  int b = 0;
  while (u >>= 1) ++b;
  return b;
#endif
}

}  // namespace

// ---------- LatencyHistogram ----------

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets) {}

int LatencyHistogram::bucket_index(uint64_t us) {
  constexpr uint64_t cap = (uint64_t{1} << kMaxOctave) - 1;
  if (us > cap) us = cap;
  if (us < kSubBuckets) return static_cast<int>(us);
  const int msb = msb_index(us);
  const int sub =
      static_cast<int>((us >> (msb - kSubBits)) & (kSubBuckets - 1));
  return kSubBuckets + (msb - kSubBits) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::bucket_lower(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  const int m = (index - kSubBuckets) / kSubBuckets;
  const int sub = (index - kSubBuckets) % kSubBuckets;
  return static_cast<uint64_t>(kSubBuckets + sub) << m;
}

uint64_t LatencyHistogram::bucket_upper(int index) {
  return index + 1 >= kNumBuckets ? (uint64_t{1} << kMaxOctave)
                                  : bucket_lower(index + 1);
}

void LatencyHistogram::record(double us) {
  if (gate_ && !gate_->load(std::memory_order_relaxed)) return;
  const uint64_t u =
      us <= 0.0 ? 0
                : static_cast<uint64_t>(std::min(
                      us, static_cast<double>(uint64_t{1} << kMaxOctave)));
  buckets_[static_cast<size_t>(bucket_index(u))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(u, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (u < cur &&
         !min_.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (u > cur &&
         !max_.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean_us() const {
  const uint64_t n = count();
  return n ? sum_us() / static_cast<double>(n) : 0.0;
}

double LatencyHistogram::min_us() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0.0 : static_cast<double>(m);
}

double LatencyHistogram::max_us() const {
  return static_cast<double>(max_.load(std::memory_order_relaxed));
}

double LatencyHistogram::Snapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(q, 0.0));
  // Exact rank from exact counts: the smallest rank covering quantile q.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::max<uint64_t>(1, std::min(rank, count));
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank)
      return static_cast<double>(bucket_lower(static_cast<int>(i)));
  }
  return static_cast<double>(bucket_lower(kNumBuckets - 1));
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(static_cast<size_t>(kNumBuckets));
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
    s.buckets[static_cast<size_t>(i)] = c;
    total += c;
  }
  // Derive the count from the bucket loads so percentile ranks always
  // resolve inside the copied buckets, even while recorders are running.
  s.count = total;
  s.sum_us = sum_.load(std::memory_order_relaxed);
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min_us = mn == UINT64_MAX ? 0 : mn;
  s.max_us = max_.load(std::memory_order_relaxed);
  return s;
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::delta_since(
    const Snapshot& prev) const {
  Snapshot d;
  d.buckets.resize(buckets.size());
  uint64_t total = 0, sum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t p = i < prev.buckets.size() ? prev.buckets[i] : 0;
    // A later snapshot of a live histogram never shrinks; a reset in
    // between would, so clamp instead of underflowing.
    d.buckets[i] = buckets[i] > p ? buckets[i] - p : 0;
    total += d.buckets[i];
  }
  sum = sum_us > prev.sum_us ? sum_us - prev.sum_us : 0;
  d.count = total;
  d.sum_us = sum;
  // Lifetime extremes, not interval extremes: the bucket sketch cannot
  // recover an interval min/max, so pass the current ones through.
  d.min_us = min_us;
  d.max_us = max_us;
  return d;
}

double LatencyHistogram::percentile(double q) const {
  return snapshot().percentile(q);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  const Snapshot o = other.snapshot();
  for (int i = 0; i < kNumBuckets; ++i)
    if (o.buckets[static_cast<size_t>(i)])
      buckets_[static_cast<size_t>(i)].fetch_add(
          o.buckets[static_cast<size_t>(i)], std::memory_order_relaxed);
  count_.fetch_add(o.count, std::memory_order_relaxed);
  sum_.fetch_add(o.sum_us, std::memory_order_relaxed);
  if (o.count) {
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (o.min_us < cur && !min_.compare_exchange_weak(
                                 cur, o.min_us, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (o.max_us > cur && !max_.compare_exchange_weak(
                                 cur, o.max_us, std::memory_order_relaxed)) {
    }
  }
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------- MetricsRegistry ----------

namespace {

// A name is bound to exactly one metric kind — two kinds under one name
// would collide in the snapshot JSON key space.
template <typename Map>
void reject_if_present(const Map& m, const std::string& name,
                       const char* kind) {
  if (m.count(name))
    throw std::invalid_argument("MetricsRegistry: \"" + name +
                                "\" already registered as a " + kind);
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    reject_if_present(gauges_, name, "gauge");
    reject_if_present(hists_, name, "histogram");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    it->second->gate_ = &enabled_;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    reject_if_present(counters_, name, "counter");
    reject_if_present(hists_, name, "histogram");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    it->second->gate_ = &enabled_;
  }
  return *it->second;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    reject_if_present(counters_, name, "counter");
    reject_if_present(gauges_, name, "gauge");
    it = hists_.emplace(name, std::make_unique<LatencyHistogram>()).first;
    it->second->gate_ = &enabled_;
  }
  return *it->second;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot s;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : hists_) s.histograms[name] = h->snapshot();
  return s;
}

std::string MetricsRegistry::snapshot_json() const {
  // Render every metric into a sorted key -> value map, then emit the flat
  // BenchJson shape ("name" first; maps keep the rest sorted).
  const RegistrySnapshot snap = snapshot();
  std::map<std::string, std::string> kv;
  for (const auto& [name, v] : snap.counters) kv[name] = std::to_string(v);
  for (const auto& [name, v] : snap.gauges) kv[name] = json_num(v);
  for (const auto& [name, s] : snap.histograms) {
    kv[name + ".count"] = std::to_string(s.count);
    kv[name + ".mean_us"] = json_num(
        s.count ? static_cast<double>(s.sum_us) / static_cast<double>(s.count)
                : 0.0);
    kv[name + ".min_us"] = json_num(static_cast<double>(s.min_us));
    kv[name + ".max_us"] = json_num(static_cast<double>(s.max_us));
    kv[name + ".p50_us"] = json_num(s.percentile(0.50));
    kv[name + ".p99_us"] = json_num(s.percentile(0.99));
    kv[name + ".p999_us"] = json_num(s.percentile(0.999));
  }
  std::string j = "{\n  \"name\": \"metrics\"";
  for (const auto& [k, v] : kv) j += ",\n  \"" + json_escaped(k) + "\": " + v;
  j += "\n}\n";
  return j;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os)
    throw std::runtime_error("MetricsRegistry: cannot write " + path);
  os << snapshot_json();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : hists_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: worker threads and atexit hooks may record during
  // static destruction; the static pointer keeps the object reachable, so
  // LeakSanitizer stays quiet.
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

std::string labeled(const std::string& name, const std::string& key,
                    const std::string& value) {
  if (key.empty()) throw std::invalid_argument("labeled(): empty label key");
  for (size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    const bool ok = alpha || (i > 0 && c >= '0' && c <= '9');
    if (!ok)
      throw std::invalid_argument("labeled(): bad label key \"" + key + "\"");
  }
  for (char c : value)
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '\n')
      throw std::invalid_argument("labeled(): bad char in label value \"" +
                                  value + "\"");
  // Compose onto an existing label suffix: "a{x=1}" + (y,2) -> "a{x=1,y=2}".
  if (!name.empty() && name.back() == '}') {
    const size_t brace = name.find('{');
    if (brace == std::string::npos)
      throw std::invalid_argument("labeled(): malformed name \"" + name +
                                  "\"");
    return name.substr(0, name.size() - 1) + "," + key + "=" + value + "}";
  }
  return name + "{" + key + "=" + value + "}";
}

namespace {

// Exit-time sink paths, leaked strings so the atexit hook and the signal
// handler can read them during teardown.
std::string* g_metrics_path = nullptr;
std::string* g_trace_path = nullptr;

void cn_obs_flush_and_reraise(int sig) {
  // Not strictly async-signal-safe (it formats and writes files), but this
  // path is opt-in (CORRECTNET_SIGNAL_FLUSH=1) and chosen deliberately: a
  // long campaign cut down by Ctrl-C keeps its metrics/trace/stream
  // artifacts instead of losing hours of telemetry to purity.
  flush_observability_sinks();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void flush_observability_sinks() noexcept {
  try {
    if (g_metrics_path) MetricsRegistry::global().write_json(*g_metrics_path);
  } catch (...) {
  }
  try {
    if (g_trace_path) Tracer::global().write_json(*g_trace_path);
  } catch (...) {
  }
  MetricsSnapshotter::flush_global();
}

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  bool want_atexit = false;
  if (const char* p = std::getenv("CORRECTNET_METRICS"); p && *p) {
    g_metrics_path = new std::string(p);
    want_atexit = true;
  }
  if (const char* p = std::getenv("CORRECTNET_TRACE"); p && *p) {
    Tracer::global().set_enabled(true);
    g_trace_path = new std::string(p);
    want_atexit = true;
  }
  if (const char* p = std::getenv("CORRECTNET_LOG"); p && *p)
    Logger::global().set_level(parse_log_level(p));
  if (const char* p = std::getenv("CORRECTNET_STATUSZ_PORT"); p && *p) {
    char* end = nullptr;
    const long port = std::strtol(p, &end, 10);
    if (*end != '\0' || port < 0 || port > 65535)
      throw std::invalid_argument("CORRECTNET_STATUSZ_PORT: invalid port '" +
                                  std::string(p) + "' (want 0-65535)");
    try {
      ExpositionServer::start_global(static_cast<int>(port)).set_ready(true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CORRECTNET_STATUSZ_PORT: %s\n", e.what());
    }
  }
  if (const char* p = std::getenv("CORRECTNET_METRICS_STREAM"); p && *p) {
    try {
      MetricsSnapshotter::start_global(p);
      want_atexit = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CORRECTNET_METRICS_STREAM: %s\n", e.what());
    }
  }
  if (const char* p = std::getenv("CORRECTNET_SLO_P99_MS"); p && *p) {
    char* end = nullptr;
    const double ms = std::strtod(p, &end);
    if (*end != '\0' || !(ms >= 0.0))
      throw std::invalid_argument("CORRECTNET_SLO_P99_MS: invalid value '" +
                                  std::string(p) + "' (want a number >= 0)");
    set_default_slo_p99_ms(ms);
  }
  if (want_atexit) {
    std::atexit(+[] {
      flush_observability_sinks();
      MetricsSnapshotter::stop_global();
    });
  }
  if (const char* p = std::getenv("CORRECTNET_SIGNAL_FLUSH");
      p && std::string(p) == "1") {
    std::signal(SIGINT, &cn_obs_flush_and_reraise);
    std::signal(SIGTERM, &cn_obs_flush_and_reraise);
  }
}

}  // namespace cn::obs
