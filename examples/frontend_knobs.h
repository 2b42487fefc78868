// The flag rows of the example frontends: correctnet_cli (main command and
// `faults`), serve_demo and fault_sweep. They live in one header so that
// tests/test_config.cpp can check them against docs/CONFIG.md like every
// other row. Each frontend adds the library rows it takes (campaign,
// serving and obs knobs) to its own.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/config.h"
#include "faultsim/campaign.h"
#include "obs/metrics.h"
#include "runtime/serving_config.h"

namespace cn::examples {

using core::KnobType;

/// Prints `why` and "usage: ARGV0CMD" with the usage generated from `rows`,
/// then exits 2.
[[noreturn]] inline void usage(const char* argv0, const core::Knobs& rows,
                               const std::string& why,
                               const char* cmd = " [flags]") {
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n%s", argv0, why.c_str(), argv0,
               cmd, core::flag_usage(rows).c_str());
  std::exit(2);
}

/// The flags argv[first, argc) through `rows`; a bad one exits via usage().
inline core::KeyValueConfig parse_flags(const core::Knobs& rows, int argc,
                                        char** argv, int first,
                                        const char* cmd = " [flags]") {
  try {
    return core::KeyValueConfig::from_flags(rows, argc, argv, first);
  } catch (const std::exception& e) {
    usage(argv[0], rows, e.what(), cmd);
  }
}

inline const core::Knobs& cli_knobs() {
  static const core::Knobs rows = [] {
    // {key, type, default, flag}
    core::Knobs r = {
        {"net", KnobType::kString, "lenet", "--net"},
        {"dataset", KnobType::kString, "digits", "--dataset"},
        {"sigma", KnobType::kNumber, "0.5", "--sigma"},
        {"epochs", KnobType::kInt, "6", "--epochs"},
        {"comp_epochs", KnobType::kInt, "5", "--comp-epochs"},
        {"beta", KnobType::kNumber, "3e-2", "--beta"},
        {"lambda_min", KnobType::kNumber, "0", "--lambda-min"},
        {"warmup", KnobType::kInt, "0", "--warmup"},
        {"ratio", KnobType::kNumber, "0.5", "--ratio"},
        {"max_layers", KnobType::kInt, "4", "--max-layers"},
        {"mc", KnobType::kInt, "15", "--mc"},
        {"rl", KnobType::kBool, "0", "--rl"},
        {"train", KnobType::kInt, "2500", "--train"},
        {"test", KnobType::kInt, "600", "--test"},
        {"save_prefix", KnobType::kString, "", "--save-prefix"},
    };
    // Retired flags, so old scripts exit 2 with what replaced them.
    core::append(r, faultsim::campaign_knobs(), {"target", "fusion"});
    core::append(r, obs::knobs(),
                 {"metrics_out", "trace_out", "log_level", "statusz_port",
                  "metrics_stream"});
    return r;
  }();
  return rows;
}

inline const core::Knobs& faults_knobs() {
  static const core::Knobs rows = [] {
    core::Knobs r = {
        {"config", KnobType::kString, "", "--config"},
        {"out", KnobType::kString, "faultsim_report.json", "--out"},
        {"epochs", KnobType::kInt, "3", "--epochs"},
        {"comp_epochs", KnobType::kInt, "3", "--comp-epochs"},
        {"train", KnobType::kInt, "800", "--train"},
        {"test", KnobType::kInt, "200", "--test"},
        {"sigma", KnobType::kNumber, "0.5", "--sigma"},
        {"quiet", KnobType::kBool, "0", "--quiet"},
    };
    // These override the campaign config's keys.
    core::append(r, faultsim::campaign_knobs(),
                 {"chips", "parallel_scenarios", "target", "remap", "fusion",
                  "metrics_out", "trace_out", "log_level", "statusz_port",
                  "metrics_stream"});
    return r;
  }();
  return rows;
}

inline const core::Knobs& demo_knobs() {
  static const core::Knobs rows = [] {
    core::Knobs r = {
        {"config", KnobType::kString, "", "--config"},
        {"linger_s", KnobType::kNumber, "0", "--linger-s"},
        {"drill", KnobType::kNumber, "0", "--drill"},
        {"drill_hold_s", KnobType::kNumber, "0", "--drill-hold-s"},
    };
    core::append(r, obs::knobs(), {"statusz_port", "slo_p99_ms"});
    core::append(r, runtime::serving_knobs(),
                 {"models", "queue_limit", "queue_budget_us", "drill.action"});
    return r;
  }();
  return rows;
}

inline const core::Knobs& sweep_knobs() {
  static const core::Knobs rows = {
      {"rate", KnobType::kNumber, "0.05", "--rate"},
      {"chips", KnobType::kInt, "6", "--chips"},
      {"spare", KnobType::kInt, "-1", "--spare"},
      {"parallel", KnobType::kInt, "1", "--parallel"},
  };
  return rows;
}

}  // namespace cn::examples
