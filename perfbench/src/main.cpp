// perfbench: the repository benchmark.
//
//   perfbench --workload campaign|serve|pipeline --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures one workload untraced and reports the end-to-end
// metrics; --trace 1 runs the traced pass (every per-layer metric, for all
// three paths) and writes its spans to --trace-out. The last stdout line is
// the JSON result; the exit code is 1 when a correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/log.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload campaign|serve|pipeline --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] | --list-per-layer\n");
  std::exit(2);
}

void print_result(const perfbench::Result& res) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  RunOptions o;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-per-layer") {
      for (const MetricSpec& s : per_layer_specs())
        std::printf("%s %s %s\n", s.name.c_str(), s.unit.c_str(), s.better.c_str());
      return 0;
    }
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (k == "--workload") workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--trace-out") trace_out = v;
    else usage();
  }
  if ((workload != "campaign" && workload != "serve" && workload != "pipeline") ||
      (trace != 0 && trace != 1) || !(o.seconds > 0))
    usage();

  cn::obs::Logger::global().set_level(cn::obs::LogLevel::kQuiet);
  try {
    Result res;
    if (trace == 1) {
      res = run_traced(o, workload);
      if (!trace_out.empty()) Tracer::global().write_json(trace_out);
    } else if (workload == "campaign") {
      res = run_campaign(o);
    } else if (workload == "serve") {
      res = run_serve(o);
    } else {
      res = run_pipeline(o);
    }
    print_result(res);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
