// Command-line front end for the CorrectNet pipeline.
//
// The main command runs baseline -> suppression -> sensitivity ->
// compensation -> Monte-Carlo and prints a summary; optionally saves the
// trained weights. The `faults` subcommand trains the same pipeline, then
// drives a faultsim::Campaign — device faults (stuck-at cells, conductance
// drift, IR drop, temperature) swept against the baseline, suppression-only,
// and compensated networks on the crossbar substrate — and writes a JSON
// CampaignReport. Its scenario grid comes from a key=value config file (see
// examples/fault_campaign.cfg); a built-in quick grid is used when --config
// is omitted. `--version` prints the build identity line, the simd level
// the crossbar kernels run at included.
//
// Every flag is a core::Knob row (frontend_knobs.h); a bad flag prints the
// usage generated from them and exits 2. docs/CONFIG.md says what each one
// means. Observability flags (docs/OBSERVABILITY.md)
// never change results: every report is byte-identical with metrics and
// tracing on or off.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "frontend_knobs.h"
#include "models/lenet.h"
#include "models/vgg.h"
#include "nn/serialize.h"
#include "obs/build_info.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/snapshot_stream.h"
#include "runtime/scheduler.h"

namespace {

using cn::examples::cli_knobs;
using cn::examples::faults_knobs;
using cn::examples::parse_flags;

// The main command's usage line also names the other commands.
constexpr const char* kMainUsage =
    " [flags] | faults [flags] | --version";

// Writes the observability sinks, ends the snapshot stream (its final
// partial-interval line) and points at the files a flag or `cfg` asked for.
int finish_sinks(const cn::core::KeyValueConfig& cfg) {
  cn::obs::flush_observability_sinks();
  cn::obs::MetricsSnapshotter::stop_global();
  for (const char* sink : {"metrics", "trace"})
    if (const std::string path = cfg.str(sink + std::string("_out")); !path.empty())
      std::printf("%s -> %s\n", sink, path.c_str());
  return 0;
}

// ---------- faults subcommand ----------

// The grid used when no --config is given: one severity ladder per fault
// kind, small enough for smoke runs.
constexpr const char* kDefaultCampaign =
    "chips = 4\n"
    "seed = 42\n"
    "catastrophic = 0.2\n"
    "stuck.rates = 0.01, 0.05\n"
    "drift.times = 100, 1000\n"
    "ir.alphas = 0.1\n"
    "thermal.temps = 400\n";

int run_faults(int argc, char** argv) {
  using namespace cn;
  const core::KeyValueConfig args =
      parse_flags(faults_knobs(), argc, argv, 2, " faults [flags]");

  // Load and parse the campaign grid first: a bad --config path or value
  // must fail before minutes of training, not after. Flags beat file keys.
  const std::string config = args.str("config");
  core::KeyValueConfig grid;
  faultsim::Campaign campaign = [&] {
    try {
      grid = config.empty() ? core::KeyValueConfig::from_string(kDefaultCampaign)
                            : core::KeyValueConfig::from_file(config);
      grid.merge(args, faultsim::campaign_knobs());
      if (args.boolean("quiet")) grid.set("log_level", "quiet");
      grid.check(faultsim::campaign_knobs());  // finish_sinks reads it
      return faultsim::campaign_from_config(grid);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad campaign config%s%s: %s\n",
                   config.empty() ? "" : " ", config.c_str(), e.what());
      std::exit(2);
    }
  }();

  data::DigitsSpec spec;
  spec.train_count = args.integer("train");
  spec.test_count = args.integer("test");
  data::SplitDataset ds = data::make_digits(spec);

  core::PipelineConfig cfg;
  cfg.name = "faults-lenet-digits";
  cfg.sigma = static_cast<float>(args.number("sigma"));
  cfg.base_train.epochs = static_cast<int>(args.integer("epochs"));
  cfg.lipschitz_train.epochs = cfg.base_train.epochs;
  cfg.comp_train.epochs = static_cast<int>(args.integer("comp_epochs"));
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = 4;  // pipeline-internal MC; the campaign does the real sweep
  cfg.plan_mode = core::PlanMode::kFixedRatio;
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  auto make_model = [](Rng& rng) { return models::lenet5(1, 28, 10, rng); };
  core::PipelineResult r = core::run_correctnet(make_model, ds.train, ds.test, cfg);

  campaign.add_model("baseline", r.base_model, false);
  campaign.add_model("suppressed", r.lipschitz_model, false);
  campaign.add_model("corrected", r.corrected_model, true);

  const faultsim::CampaignOptions& co = campaign.options();
  std::printf("\nrunning fault campaign: %lld scenarios (%lld fault specs x %lld "
              "protection variants%s), simd %s, concurrency %lld\n",
              static_cast<long long>(campaign.num_scenarios()),
              static_cast<long long>(campaign.num_faults()),
              static_cast<long long>(campaign.num_models()),
              co.remap.enabled ? " x 2 remap variants" : "",
              obs::build_info().simd.c_str(),
              static_cast<long long>(runtime::effective_concurrency(
                  co.parallel_scenarios, campaign.num_scenarios())));
  const faultsim::CampaignReport report = campaign.run(ds.test);

  std::printf("\n==== fault campaign (%lld chips/scenario, %.2fs) ====\n",
              static_cast<long long>(report.chips), report.wall_s);
  std::printf("%-10s %-9s | %-22s %-22s %-22s\n", "fault", "severity", "baseline",
              "suppressed", "corrected");
  for (const auto* row : report.for_model("baseline")) {
    const faultsim::ScenarioResult* sup = nullptr;
    const faultsim::ScenarioResult* cor = nullptr;
    for (const auto& s : report.scenarios) {
      if (s.fault_kind != row->fault_kind || s.severity != row->severity ||
          s.remapped != row->remapped)
        continue;
      if (s.model_name == "suppressed") sup = &s;
      if (s.model_name == "corrected") cor = &s;
    }
    auto cell = [](const faultsim::ScenarioResult* s) {
      char buf[64];
      if (!s) {
        std::snprintf(buf, sizeof(buf), "-");
      } else {
        std::snprintf(buf, sizeof(buf), "%5.2f%% +-%5.2f%% (%lldc)",
                      100.0 * s->acc.mean, 100.0 * s->acc.stddev,
                      static_cast<long long>(s->catastrophic));
      }
      return std::string(buf);
    };
    const std::string label =
        row->fault_kind + (row->remapped ? "+rm" : "");
    std::printf("%-10s %-9.4g | %-22s %-22s %-22s\n", label.c_str(),
                row->severity, cell(row).c_str(), cell(sup).c_str(),
                cell(cor).c_str());
    if (row->remapped && row->defects > 0)
      std::printf("%-10s %-9s |   defects %lld, absorbed %lld, residual %lld\n",
                  "", "", static_cast<long long>(row->defects),
                  static_cast<long long>(row->absorbed),
                  static_cast<long long>(row->residual));
  }
  std::printf("mean over grid: baseline %.2f%%, suppressed %.2f%%, corrected "
              "%.2f%%; catastrophic chips: %lld\n",
              100.0 * report.mean_accuracy("baseline"),
              100.0 * report.mean_accuracy("suppressed"),
              100.0 * report.mean_accuracy("corrected"),
              static_cast<long long>(report.total_catastrophic()));
  if (report.total_absorbed() > 0)
    std::printf("remap axis: baseline %.2f%% -> %.2f%% with remapping; "
                "defective devices absorbed across the grid: %lld\n",
                100.0 * report.mean_accuracy("baseline", false),
                100.0 * report.mean_accuracy("baseline", true),
                static_cast<long long>(report.total_absorbed()));
  report.write_json(args.str("out"));
  std::printf("report -> %s\n", args.str("out").c_str());
  return finish_sinks(grid);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  const bool faults = argc > 1 && std::strcmp(argv[1], "faults") == 0;
  // faults keeps per-scenario progress (logged at debug) visible by default;
  // the environment, the config file and the flags all override that.
  if (faults) obs::Logger::global().set_level(obs::LogLevel::kDebug);
  // Each command calls obs::configure once, with every layer merged;
  // --version does no work but still applies (and so checks) the environment.
  const bool version = argc > 1 && std::strcmp(argv[1], "--version") == 0;
  try {
    if (version) obs::init_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  if (version) {
    std::printf("%s\n", obs::build_info_line().c_str());
    return 0;
  }
  if (faults) return run_faults(argc, argv);
  const core::KeyValueConfig args =
      parse_flags(cli_knobs(), argc, argv, 1, kMainUsage);
  try {
    obs::configure(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  if (obs::ExpositionServer* srv = obs::ExpositionServer::global())
    srv->set_ready(true);

  // Dataset.
  const std::string net = args.str("net");
  const std::string dataset = args.str("dataset");
  const int64_t train = args.integer("train");
  const int64_t test = args.integer("test");
  data::SplitDataset ds;
  int num_classes = 10;
  int64_t in_c = 1, in_hw = 28;
  if (dataset == "digits") {
    data::DigitsSpec spec;
    spec.train_count = train;
    spec.test_count = test;
    ds = data::make_digits(spec);
  } else if (dataset == "objects10" || dataset == "objects100") {
    data::ObjectsSpec spec;
    spec.num_classes = (dataset == "objects100") ? 100 : 10;
    num_classes = static_cast<int>(spec.num_classes);
    spec.train_count = train;
    spec.test_count = test;
    if (num_classes >= 100) {
      spec.noise_std = 0.35f;
      spec.class_similarity = 0.4f;
      spec.jitter_frac = 0.1f;
    } else {
      spec.noise_std = 0.7f;
      spec.class_similarity = 0.6f;
      spec.jitter_frac = 0.15f;
    }
    ds = data::make_objects(spec);
    in_c = 3;
    in_hw = 32;
  } else {
    examples::usage(argv[0], cli_knobs(), "unknown dataset '" + dataset + "'",
                    kMainUsage);
  }

  const float sigma = static_cast<float>(args.number("sigma"));
  const int mc = static_cast<int>(args.integer("mc"));
  const bool rl = args.boolean("rl");
  core::PipelineConfig cfg;
  cfg.name = net + "-" + dataset;
  cfg.sigma = sigma;
  cfg.base_train.epochs = static_cast<int>(args.integer("epochs"));
  cfg.lipschitz_train.epochs = cfg.base_train.epochs;
  cfg.lipschitz_train.lipschitz.beta = static_cast<float>(args.number("beta"));
  cfg.lipschitz_train.lipschitz.lambda_min =
      static_cast<float>(args.number("lambda_min"));
  cfg.lipschitz_train.lipschitz_warmup_epochs =
      static_cast<int>(args.integer("warmup"));
  cfg.comp_train.epochs = static_cast<int>(args.integer("comp_epochs"));
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = mc;
  cfg.fixed_ratio = static_cast<float>(args.number("ratio"));
  cfg.max_candidates = static_cast<int>(args.integer("max_layers"));
  cfg.plan_mode = rl ? core::PlanMode::kRl : core::PlanMode::kFixedRatio;
  if (rl) {
    cfg.search.reinforce.iterations = 10;
    cfg.search.comp_train.epochs = 1;
    cfg.search.mc.samples = std::max(3, mc / 4);
    cfg.search.overhead_limit = 0.05f;
  }
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };

  auto make_model = [&](Rng& rng) -> nn::Sequential {
    if (net == "vgg") {
      models::VggConfig vcfg;
      vcfg.num_classes = num_classes;
      return models::vgg16(vcfg, rng);
    }
    return models::lenet5(in_c, in_hw, num_classes, rng);
  };

  core::PipelineResult r =
      core::run_correctnet(make_model, ds.train, ds.test, cfg);

  std::printf("\n==== %s, sigma = %.2f ====\n", cfg.name.c_str(), sigma);
  std::printf("clean:       baseline %.2f%%, lipschitz %.2f%%\n",
              100.0 * r.clean_acc_base, 100.0 * r.clean_acc_lipschitz);
  std::printf("variations:  baseline %.2f%% +- %.2f%%\n", 100.0 * r.base_var.mean,
              100.0 * r.base_var.stddev);
  std::printf("suppressed:  %.2f%% +- %.2f%%\n", 100.0 * r.lipschitz_var.mean,
              100.0 * r.lipschitz_var.stddev);
  std::printf("CorrectNet:  %.2f%% +- %.2f%%  (overhead %.2f%%, %lld layers)\n",
              100.0 * r.corrected_var.mean, 100.0 * r.corrected_var.stddev,
              100.0 * r.overhead, static_cast<long long>(r.comp_layers));

  const std::string save_prefix = args.str("save_prefix");
  if (!save_prefix.empty()) {
    nn::save_weights(r.base_model, save_prefix + "_base.wts");
    nn::save_weights(r.lipschitz_model, save_prefix + "_lip.wts");
    nn::save_weights(r.corrected_model, save_prefix + "_corrected.wts");
    std::printf("weights saved with prefix %s\n", save_prefix.c_str());
  }
  return finish_sinks(args);
}
