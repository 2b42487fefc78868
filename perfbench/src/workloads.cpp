// The `campaign` and `pipeline` workloads (closed loop, one call at a time).
#include "bench.h"
#include "tensor/threadpool.h"

namespace perfbench {

Result run_campaign(const RunOptions& o) {
  Result res;
  const cn::data::SplitDataset ds = make_dataset(o.seed);
  double setup_s = 0;
  std::unique_ptr<cn::faultsim::Campaign> campaign;
  const cn::core::PipelineResult r = timed_setup(
      ds,
      [&](const cn::core::PipelineResult& trained) {
        campaign = std::make_unique<cn::faultsim::Campaign>(make_campaign(o.seed, 0, trained));
      },
      setup_s, res);

  const double evals =
      static_cast<double>(campaign->num_scenarios()) * 6.0;  // 6 chips per cell
  std::vector<double> wall_s, cpu_s;
  std::string key;
  cn::faultsim::CampaignReport rep;
  const Clock::time_point t0 = Clock::now();
  while (wall_s.size() < 2 || seconds_since(t0) < o.seconds) {
    const Clock::time_point c0 = Clock::now();
    const double cpu0 = cpu_seconds();
    rep = campaign->run(ds.test);
    wall_s.push_back(seconds_since(c0));
    cpu_s.push_back(cpu_seconds() - cpu0);
    const std::string k = report_key(rep);
    if (key.empty()) key = k;
    res.check(k == key, "campaign report repeats byte for byte");
  }
  // The same grid one cell at a time must give the same report.
  cn::faultsim::Campaign serial = make_campaign(o.seed, 1, r);
  const Clock::time_point s0 = Clock::now();
  const std::string serial_key = report_key(serial.run(ds.test));
  const double serial_s = seconds_since(s0);
  res.check(serial_key == key, "campaign report equals the parallel_scenarios = 1 report");

  const double acc = rep.mean_accuracy("corrected");
  say("campaign: %lld cells x 6 chips, %zu calls, wall %.3f s median (max %.3f); one "
      "cell at a time %.3f s",
      static_cast<long long>(campaign->num_scenarios()), wall_s.size(), median(wall_s),
      max_of(wall_s), serial_s);
  say("campaign.chip_evals_per_s %.3f 1/s   campaign.acc_corrected %.6f   %.3f chip "
      "evaluations per CPU-second",
      evals / median(wall_s), acc, evals / median(cpu_s));
  res.set("setup_s", setup_s, "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("work_per_cpu_s", evals / median(cpu_s), "1/s");
  res.set("quality", acc, "ratio");
  res.set("latency_ms", 1e3 * median(wall_s), "ms");
  return res;
}

Result run_pipeline(const RunOptions& o) {
  Result res;
  std::vector<double> setup_s;
  cn::data::SplitDataset ds;
  for (int k = 0; k < 9; ++k) {  // about 0.1 s each, so more repeats than the others
    const Clock::time_point t0 = Clock::now();
    ds = make_dataset(o.seed);
    cn::ThreadPool::global();  // its threads start on first use
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> run_s, cpu_s;
  RepeatTally tally;
  cn::core::PipelineResult r;
  const Clock::time_point t0 = Clock::now();
  while (run_s.size() < 2 || seconds_since(t0) < o.seconds) {
    const Clock::time_point c0 = Clock::now();
    const double cpu0 = cpu_seconds();
    r = train_correctnet(ds, make_pipeline_config());
    run_s.push_back(seconds_since(c0));
    cpu_s.push_back(cpu_seconds() - cpu0);
    tally.add(pipeline_accuracies(r));
    check_pipeline_result(ds, r, res);
  }
  tally.report("pipeline calls");

  const double recovery = r.corrected_var.mean / r.clean_acc_base;
  say("pipeline: %zu calls, run_s median %.4f s (max %.4f), %.4f CPU-seconds per call",
      run_s.size(), median(run_s), max_of(run_s), median(cpu_s));
  say("pipeline.run_s %.4f s   pipeline.recovery %.6f (corrected %.4f / clean %.4f)",
      median(run_s), recovery, r.corrected_var.mean, r.clean_acc_base);
  res.set("setup_s", median(setup_s), "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("work_per_cpu_s", 1.0 / median(cpu_s), "1/s");
  res.set("quality", recovery, "ratio");
  res.set("latency_ms", 1e3 * median(run_s), "ms");
  return res;
}

}  // namespace perfbench
