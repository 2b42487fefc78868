// serve_demo: the inference runtime end to end — train a small model, spin
// up a ChipFarm of variation-afflicted chip instances, serve concurrent
// clients through the micro-batching InferenceServer, and print the full
// stats snapshot (throughput plus p50/p99/p999 latency percentiles and the
// SLO burn-rate line when an objective is set).
//
// Serving-policy mode (any of --models/--config/--drill) swaps the single
// server for a ModelRouter: one lane per model id under a shared live-slot
// budget, per-model admission control, and an optional mid-traffic fault
// drill — N workers of one lane degraded/remapped/evicted between two
// traffic phases while /healthz is queried through the degraded window.
//
// Flags (all optional):
//   --statusz-port N     serve /metrics, /healthz, /statusz on 127.0.0.1:N
//                        while the demo runs (0 = ephemeral; port printed)
//   --linger-s S         keep the process (and the exposition server) alive S
//                        seconds after serving finishes — lets `curl` inspect
//                        the endpoints post-run (CI does exactly this)
//   --slo-p99-ms X       latency objective p99 < X ms (default 50; 0 = off)
//   --models a,b         serving-policy mode: route across these model ids
//   --config FILE        serving-policy mode: key=value serving config
//                        (docs/CONFIG.md serving table); flags override
//   --queue-limit N      admission: bounded per-model queue
//   --queue-budget-us N  admission: estimated-wait latency budget
//   --drill RATE         mid-traffic stuck-at drill at this cell-fault rate
//   --drill-action A     degrade | evict | remap (default remap)
//   --drill-hold-s S     hold the process S seconds inside the degraded
//                        window (statusz live) so an external prober can
//                        watch /healthz through it
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"
#include "runtime/model_router.h"
#include "runtime/serving_config.h"
#include "tensor/ops.h"

namespace {

struct PhaseResult {
  int64_t ok = 0;        // futures that resolved with an output
  int64_t rejected = 0;  // admission-rejected (typed Overloaded)
  int64_t failed = 0;    // any other future failure — must stay 0
  int64_t correct = 0;   // of ok, correctly classified
};

// One traffic phase: `count` requests round-robined across the router's
// models from 3 client threads, then every future drained.
PhaseResult run_phase(cn::runtime::ModelRouter& router,
                      const std::vector<std::string>& ids,
                      const cn::data::Dataset& test, int64_t count) {
  using cn::Tensor;
  constexpr int kClients = 3;
  std::mutex mu;
  std::vector<std::tuple<int64_t, std::future<Tensor>>> futs;
  std::vector<std::thread> clients;
  const int64_t per_client = count / kClients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int64_t i = 0; i < per_client; ++i) {
        const int64_t n = c * per_client + i;
        const int64_t idx = n % test.size();
        const std::string& id = ids[static_cast<size_t>(n) % ids.size()];
        auto fut = router.submit(id, test.image(idx));
        std::lock_guard<std::mutex> lk(mu);
        futs.emplace_back(idx, std::move(fut));
      }
    });
  for (auto& c : clients) c.join();
  PhaseResult r;
  for (auto& [idx, fut] : futs) {
    try {
      Tensor logits = fut.get();
      logits.reshape({1, logits.size()});
      ++r.ok;
      if (cn::argmax_row(logits, 0) == test.labels[static_cast<size_t>(idx)])
        ++r.correct;
    } catch (const cn::runtime::Overloaded&) {
      ++r.rejected;
    } catch (const std::exception& e) {
      if (r.failed == 0)
        std::fprintf(stderr, "[serve] FAILED future: %s\n", e.what());
      ++r.failed;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  try {
    obs::init_from_env();  // CORRECTNET_METRICS / _TRACE / _LOG / _STATUSZ_PORT...
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  int64_t statusz_port = -1;
  double linger_s = 0;
  double slo_p99_ms = 50;  // small-model latencies are sub-ms; 50ms = healthy
  std::string models_flag, config_path, drill_action_flag;
  int64_t queue_limit = -1, queue_budget_us = -1;
  double drill_rate = 0;
  double drill_hold_s = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--statusz-port N] [--linger-s S] "
                     "[--slo-p99-ms X] [--models a,b] [--config FILE] "
                     "[--queue-limit N] [--queue-budget-us N] [--drill RATE] "
                     "[--drill-action degrade|evict|remap] [--drill-hold-s S]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--statusz-port") statusz_port = std::atoll(next());
    else if (k == "--linger-s") linger_s = std::atof(next());
    else if (k == "--slo-p99-ms") slo_p99_ms = std::atof(next());
    else if (k == "--models") models_flag = next();
    else if (k == "--config") config_path = next();
    else if (k == "--queue-limit") queue_limit = std::atoll(next());
    else if (k == "--queue-budget-us") queue_budget_us = std::atoll(next());
    else if (k == "--drill") drill_rate = std::atof(next());
    else if (k == "--drill-action") drill_action_flag = next();
    else if (k == "--drill-hold-s") drill_hold_s = std::atof(next());
    else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], k.c_str());
      return 2;
    }
  }
  const bool policy_mode =
      !models_flag.empty() || !config_path.empty() || drill_rate > 0;

  std::printf("== serve_demo: micro-batched inference over a chip farm ==\n");
  if (statusz_port >= 0) {
    obs::ExpositionServer& srv =
        obs::ExpositionServer::start_global(static_cast<int>(statusz_port));
    std::printf("[obs] statusz on http://127.0.0.1:%d (/metrics /healthz "
                "/statusz) — not ready until the farm is programmed\n",
                srv.port());
  }

  data::DigitsSpec spec;
  spec.train_count = 600;
  spec.test_count = 200;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(7);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  std::printf("[train] LeNet5 on synthetic digits (%d epochs)...\n", cfg.epochs);
  core::train(model, ds.train, ds.test, cfg);
  std::printf("[train] clean test accuracy: %.3f\n", core::evaluate(model, ds.test));

  if (policy_mode) {
    // ---- serving-policy mode: ModelRouter + admission + fault drill ----
    core::KeyValueConfig kcfg;
    if (!config_path.empty()) kcfg = core::KeyValueConfig::from_file(config_path);
    if (!models_flag.empty()) kcfg.set("models", models_flag);
    if (queue_limit >= 0) kcfg.set("queue_limit", std::to_string(queue_limit));
    if (queue_budget_us >= 0)
      kcfg.set("queue_budget_us", std::to_string(queue_budget_us));
    if (drill_rate > 0) {
      kcfg.set("drill.kind", "stuck_at");
      kcfg.set("drill.severity", std::to_string(drill_rate));
    }
    if (!drill_action_flag.empty()) kcfg.set("drill.action", drill_action_flag);
    const runtime::ServingConfig sc = runtime::serving_from_config(kcfg);

    runtime::ModelRouterOptions ro;
    ro.max_live_total = sc.live_slots;
    runtime::ModelRouter router(ro);
    const bool crossbar = !sc.drill_kind.empty();
    for (size_t m = 0; m < sc.models.size(); ++m) {
      runtime::ChipFarmOptions fo;
      fo.instances = sc.chips;
      fo.max_live = sc.chips;  // explicit: don't let a small machine's pool
                               // clamp the lane below its configured chips
      fo.seed = 42 + m;
      runtime::InferenceServerOptions so;
      so.max_batch = sc.max_batch;
      so.max_wait_us = sc.max_wait_us;
      so.workers = static_cast<int>(sc.workers);
      so.queue_limit = sc.queue_limit;
      so.queue_budget_us = sc.queue_budget_us;
      so.admission_burn_max = sc.admission_burn_max;
      so.slo_p99_ms = sc.slo_p99_ms > 0 ? sc.slo_p99_ms : slo_p99_ms;
      if (crossbar) {
        // Drills inject device faults: lanes need the crossbar substrate.
        analog::RramDeviceParams dev;
        dev.program_sigma = 0.1f;
        router.add_model(sc.models[m], model, dev, fo, so);
      } else {
        analog::VariationModel vm{analog::VariationKind::kLognormal, 0.2f};
        router.add_model(sc.models[m], model, vm, fo, so);
      }
    }
    std::printf("[router] %zu models (%s), %lld live slots used, "
                "workers=%lld, max_batch=%lld, queue_limit=%lld, "
                "queue_budget=%lldus\n",
                sc.models.size(), crossbar ? "crossbar" : "factor",
                static_cast<long long>(router.live_slots_used()),
                static_cast<long long>(sc.workers),
                static_cast<long long>(sc.max_batch),
                static_cast<long long>(sc.queue_limit),
                static_cast<long long>(sc.queue_budget_us));

    const int64_t phase_requests = 3 * ds.test.size();
    const PhaseResult before =
        run_phase(router, sc.models, ds.test, phase_requests);
    std::printf("[serve] phase 1: %lld ok, %lld rejected, %lld failed, "
                "accuracy %.3f\n",
                static_cast<long long>(before.ok),
                static_cast<long long>(before.rejected),
                static_cast<long long>(before.failed),
                before.ok ? static_cast<double>(before.correct) /
                                static_cast<double>(before.ok)
                          : 0.0);

    PhaseResult after;
    if (!sc.drill_kind.empty()) {
      const faultsim::FaultSpec fault =
          faultsim::make_fault(sc.drill_kind, sc.drill_severity);
      runtime::DrillSpec drill;
      drill.action = sc.drill_action == "evict"
                         ? runtime::DrillSpec::Action::kEvict
                     : sc.drill_action == "degrade"
                         ? runtime::DrillSpec::Action::kDegrade
                         : runtime::DrillSpec::Action::kRemap;
      for (int64_t w : sc.drill_workers)
        drill.workers.push_back(static_cast<int>(w));
      drill.faults = fault.models;
      const std::string& victim = sc.models.front();
      std::printf("[drill] %s worker(s) of model \"%s\": %s severity %g "
                  "mid-traffic\n",
                  sc.drill_action.c_str(), victim.c_str(),
                  sc.drill_kind.c_str(), sc.drill_severity);
      router.drill(victim, drill);
      after = run_phase(router, sc.models, ds.test, phase_requests);
      if (obs::ExpositionServer* srv = obs::ExpositionServer::global()) {
        int code = 0;
        srv->handle("/healthz", &code);
        std::printf("[drill] healthz during drill: %d\n", code);
      }
      if (drill_hold_s > 0) {
        std::printf("[drill] holding degraded window %.1fs for external "
                    "probes...\n",
                    drill_hold_s);
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::duration<double>(drill_hold_s));
      }
      std::printf("[serve] phase 2 (degraded): %lld ok, %lld rejected, "
                  "%lld failed, accuracy %.3f\n",
                  static_cast<long long>(after.ok),
                  static_cast<long long>(after.rejected),
                  static_cast<long long>(after.failed),
                  after.ok ? static_cast<double>(after.correct) /
                                 static_cast<double>(after.ok)
                           : 0.0);
    }

    for (const auto& [id, st] : router.stats())
      std::printf("[serve] model %s:\n%s\n", id.c_str(), st.summary().c_str());
    const long long failed =
        static_cast<long long>(before.failed + after.failed);
    std::printf("[serve] failed futures: %lld\n", failed);

    if (linger_s > 0) {
      std::printf("[obs] lingering %.1fs for endpoint inspection...\n",
                  linger_s);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
    }
    std::printf("done.\n");
    return failed == 0 ? 0 : 1;
  }

  // ---- classic single-model path (unlabeled server.* metrics) ----
  // A farm of chips, each with its own sampled programming variation — the
  // traffic is spread over instances the way a real deployment would spread
  // it over dies.
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.2f};
  runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;
  fo.seed = 42;
  runtime::ChipFarm farm(model, vm, fo);

  runtime::InferenceServerOptions so;
  so.max_batch = 16;
  so.max_wait_us = 1500;
  so.workers = 2;
  so.slo_p99_ms = slo_p99_ms;  // server ctor flips /healthz to ready
  runtime::InferenceServer server(farm, so);

  constexpr int kClients = 3;
  const int64_t per_client = ds.test.size() / kClients;
  std::printf("[serve] %d clients x %lld requests, max_batch=%lld, "
              "max_wait=%lldus, workers=%d\n",
              kClients, static_cast<long long>(per_client),
              static_cast<long long>(so.max_batch),
              static_cast<long long>(so.max_wait_us), so.workers);

  std::mutex mu;
  std::vector<std::pair<int64_t, std::future<Tensor>>> futs;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int64_t i = 0; i < per_client; ++i) {
        const int64_t idx = c * per_client + i;
        auto fut = server.submit(ds.test.image(idx));
        std::lock_guard<std::mutex> lk(mu);
        futs.emplace_back(idx, std::move(fut));
      }
    });
  for (auto& c : clients) c.join();

  int64_t correct = 0;
  for (auto& [idx, fut] : futs) {
    Tensor logits = fut.get();
    logits.reshape({1, logits.size()});
    if (argmax_row(logits, 0) == ds.test.labels[static_cast<size_t>(idx)]) ++correct;
  }

  // The one formatting of the stats snapshot — percentiles included — lives
  // on ServerStats itself; no more hand-rolled averages here. The server is
  // NOT shut down before the linger: shutdown clears /healthz readiness
  // (refcounted, see InferenceServer::shutdown), and the linger exists
  // precisely so external probes can watch a live, ready server.
  const runtime::ServerStats st = server.stats();
  std::printf("[serve] %s\n", st.summary().c_str());
  std::printf("[serve] accuracy under variation: %.3f\n",
              static_cast<double>(correct) / static_cast<double>(futs.size()));

  if (linger_s > 0) {
    // The server object (and its /statusz section) stays alive through the
    // linger so curl sees the full page.
    std::printf("[obs] lingering %.1fs for endpoint inspection...\n", linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  std::printf("done.\n");
  return 0;
}
