// The traced run. It calls each module's public functions from here, one
// span around each call, and derives every per-layer metric from the spans'
// self times. The same pass serves every workload: it covers the pipeline,
// the campaign and the served chip, and reports the tracing overhead of
// each by repeating its timed part untraced.
#include <cmath>
#include <functional>

#include "analog/crossbar_layers.h"
#include "analog/variation.h"
#include "bench.h"
#include "core/compensation.h"
#include "core/lipschitz.h"
#include "data/batcher.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "nn/fusion.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"
#include "runtime/scheduler.h"
#include "tensor/rng.h"
#include "tensor/threadpool.h"

namespace perfbench {

namespace {

// LeNet-5 layer labels, in order; the analog ones carry crossbar arrays.
const std::vector<std::string> kNodes = {"conv1", "relu1", "pool1", "conv2",
                                         "relu2", "pool2", "flatten", "fc1",
                                         "relu3", "fc2",   "relu4",   "fc3"};
const std::vector<std::string> kAnalogNodes = {"conv1", "conv2", "fc1", "fc2", "fc3"};
const std::vector<std::string> kConvNodes = {"conv1", "conv2"};
const std::vector<int64_t> kBatches = {1, 16, 128};
const std::vector<std::string> kStages = {"baseline_train", "baseline_mc",
                                          "lipschitz_train", "sensitivity",
                                          "compensation_train", "corrected_mc"};
const std::vector<std::string> kPhases = {"sparse", "dense", "closed"};
const std::vector<std::string> kWorkloads = {"campaign", "serve", "pipeline"};

std::string bname(int64_t b) { return "b" + std::to_string(b); }

// The stage a PipelineConfig::log message opens.
std::string stage_of(const std::string& msg) {
  static const std::vector<std::pair<std::string, std::string>> kText = {
      {"training baseline network", "baseline_train"},
      {"evaluating baseline under variations", "baseline_mc"},
      {"training with Lipschitz regularization", "lipschitz_train"},
      {"running sensitivity sweep", "sensitivity"},
      {"training compensation blocks", "compensation_train"},
      {"evaluating CorrectNet under variations", "corrected_mc"}};
  for (const auto& [text, stage] : kText)
    if (msg.find(text) != std::string::npos) return stage;
  return "other";
}

// The crossbar array that executes an analog node (a compensated conv's
// base override, or the node itself).
const cn::analog::CrossbarArray* array_of(cn::nn::Layer& node) {
  if (auto* d = dynamic_cast<cn::analog::CrossbarDense*>(&node)) return &d->array();
  if (auto* c = dynamic_cast<cn::analog::CrossbarConv2D*>(&node)) return &c->array();
  return nullptr;
}

cn::nn::Layer* xbar_base(cn::nn::Layer& node) {
  if (array_of(node)) return &node;
  cn::nn::Layer* base = nullptr;
  node.visit_analog_bases([&](const cn::nn::Layer&, std::unique_ptr<cn::nn::Layer>& slot) {
    if (slot && array_of(*slot)) base = slot.get();
  });
  return base;
}

std::string node_name(const cn::nn::Layer& l) {
  std::string s = l.label();
  for (const char* suffix : {"@xbar", "+comp"}) {
    const size_t p = s.find(suffix);
    if (p != std::string::npos) s = s.substr(0, p);
  }
  return s;
}

cn::Tensor batch_of(const cn::data::Dataset& ds, int64_t b) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < b; ++i) idx.push_back(i % ds.size());
  return cn::data::gather(ds, idx).images;
}

// One training step built from the public calls the trainer makes.
void train_step(cn::nn::Sequential& model, const cn::data::Batch& batch,
                cn::nn::Optimizer& opt, const cn::core::LipschitzConfig* lip,
                const cn::analog::VariationModel* vm, cn::Rng& rng, const std::string& name) {
  Span step(name);
  auto params = model.params();
  if (vm) {
    Span s("variation.perturb_all");
    cn::analog::perturb_all(model, *vm, rng);
  }
  cn::nn::Optimizer::zero_grad(params);
  cn::Tensor logits, grad;
  {
    Span s("nn.forward.train");
    logits = model.forward(batch.images, /*train=*/true);
  }
  {
    Span s("nn.loss");
    cn::nn::SoftmaxCrossEntropy().forward(logits, batch.labels, &grad);
  }
  {
    Span s("nn.backward");
    model.backward(grad);
  }
  {
    Span s("nn.clip_grad_norm");
    cn::nn::clip_grad_norm(params, 5.0f);
  }
  if (lip) {
    Span s("lipschitz.penalty");
    cn::core::apply_lipschitz_regularization(params, *lip);
  }
  {
    Span s("optim.step");
    opt.step(params);
  }
}

// Freezes everything but the compensation blocks, as train_compensation does.
void freeze_to_compensation(cn::nn::Sequential& model) {
  model.set_trainable(false);
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    auto* c = dynamic_cast<cn::core::CompensatedConv2D*>(&model.layer(i));
    if (!c) continue;
    const auto base = c->base().params();
    for (cn::nn::Param* p : c->params())
      p->trainable = std::find(base.begin(), base.end(), p) == base.end();
  }
}

// Per-layer metrics read back from the spans recorded so far.
class Profile {
 public:
  explicit Profile(Result& res) : res_(res) {}

  void set(const std::string& name, double v) {
    for (const MetricSpec& s : per_layer_specs())
      if (s.name == name) {
        res_.set(name, v, s.unit);
        return;
      }
    throw std::logic_error("per-layer metric not declared: " + name);
  }
  /// Re-reads the tracer; call after recording a section's spans.
  void refresh() {
    self_ = Tracer::global().by_name(true);
    dur_ = Tracer::global().by_name(false);
  }
  /// Self times / durations (us) of the spans called `name`.
  const std::vector<double>& self(const std::string& name) const { return get(self_, name); }
  const std::vector<double>& dur(const std::string& name) const { return get(dur_, name); }
  /// Median self time (us) / median duration (us) of the spans called `name`.
  double self_us(const std::string& name) const { return median(self(name)); }
  double dur_us(const std::string& name) const { return median(dur(name)); }

 private:
  static const std::vector<double>& get(const std::map<std::string, std::vector<double>>& m,
                                        const std::string& name) {
    const auto it = m.find(name);
    if (it == m.end() || it->second.empty())
      throw std::logic_error("no spans named " + name);
    return it->second;
  }

  Result& res_;
  std::map<std::string, std::vector<double>> self_, dur_;
};

// Runs fn on a worker of the global pool, where nested parallel loops run
// inline, as they do inside a campaign cell.
void on_pool_worker(const std::function<void()>& fn) {
  cn::ThreadPool::global().parallel_for(0, 2, [&](int64_t lo, int64_t) {
    if (lo == 0) fn();
  });
}

// The faster of each pair: traced over untraced, minus one.
double overhead(const std::vector<double>& traced, const std::vector<double>& untraced) {
  return quantile(traced, 0) / quantile(untraced, 0) - 1.0;
}

}  // namespace

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> s;
  auto add = [&](std::string n, std::string u, std::string b) {
    s.push_back({std::move(n), std::move(u), std::move(b)});
  };
  add("chip_farm.program_ms.p50", "ms", "lower");
  add("chip_farm.program_ms.p90", "ms", "lower");
  add("chip_farm.program_ms.stuck_at_remap", "ms", "lower");
  add("factor_farm.chip_ms", "ms", "lower");
  add("mc_engine.eval_ms_per_chip", "ms", "lower");
  add("campaign.program_share", "frac", "lower");
  add("scheduler.occupancy", "frac", "higher");
  add("remap.defects", "count", "lower");
  add("remap.absorbed", "count", "higher");
  add("remap.residual", "count", "lower");
  for (int64_t b : kBatches) {
    for (const std::string& n : kNodes) add("node_us." + n + "." + bname(b), "us", "lower");
    for (const std::string& n : kConvNodes)
      add("node_us." + n + ".xbar." + bname(b), "us", "lower");
    add("chip.forward_us." + bname(b), "us", "lower");
    add("chip.node_sum_frac." + bname(b), "frac", "lower");
  }
  for (const std::string& n : kAnalogNodes) add("node_gflops." + n + ".b128", "GFLOP/s", "higher");
  add("exec.peak_gflops", "GFLOP/s", "higher");
  for (const std::string& ph : kPhases) {
    add("server.avg_batch." + ph, "count", "higher");
    add("server.service_ms." + ph, "ms", "lower");
  }
  add("server.full_batch_frac.closed", "frac", "higher");
  for (const char* p : {"sparse", "dense"}) {
    const std::string ph = p;
    add("server.wait_ms." + ph, "ms", "lower");
    add("serve." + ph + "_p50_ms", "ms", "lower");
    add("serve." + ph + "_p99_ms", "ms", "lower");
    add("loadgen.late_ms." + ph + ".p99", "ms", "lower");
    add("loadgen.late_ms." + ph + ".max", "ms", "lower");
  }
  add("router.submit_us.p50", "us", "lower");
  add("router.submit_us.p99", "us", "lower");
  for (const std::string& st : kStages) add("pipeline.stage_s." + st, "s", "lower");
  add("trainer.step_ms.plain", "ms", "lower");
  add("trainer.step_ms.lipschitz", "ms", "lower");
  add("lipschitz.penalty_ms", "ms", "lower");
  add("lipschitz.penalty_share", "frac", "lower");
  add("compensation.step_ms", "ms", "lower");
  add("nn.forward_ms.fused.b128", "ms", "lower");
  add("nn.forward_ms.unfused.b128", "ms", "lower");
  add("fusion.plan_build_ms", "ms", "lower");
  add("data.gen_s", "s", "lower");
  for (const std::string& w : kWorkloads) add("trace.overhead_frac." + w, "frac", "lower");
  return s;
}

namespace {

// run_correctnet stage by stage, one training step of each kind, the fused
// and unfused forward, and factor-mode chips. Returns the trained networks.
cn::core::PipelineResult trace_pipeline(const RunOptions& o, const cn::data::SplitDataset& ds,
                                        Profile& prof, Result& res) {
  Tracer& tr = Tracer::global();
  tr.set_workload("pipeline");
  auto traced_call = [&] {
    cn::core::PipelineConfig cfg = make_pipeline_config();
    const int64_t run_span = tr.begin("pipeline.run_correctnet");
    int64_t stage_span = -1;
    cfg.log = [&](const std::string& msg) {
      tr.end(stage_span);
      stage_span = tr.begin("pipeline.stage/" + stage_of(msg), run_span);
    };
    cn::core::PipelineResult out = train_correctnet(ds, cfg);
    tr.end(stage_span);
    tr.end(run_span);
    return out;
  };
  // Untraced and traced in turn, twice.
  std::vector<double> untraced, traced;
  RepeatTally tally;
  cn::core::PipelineResult r;
  for (int k = 0; k < 2; ++k) {
    tr.set_enabled(false);
    Clock::time_point t0 = Clock::now();
    r = train_correctnet(ds, make_pipeline_config());
    untraced.push_back(seconds_since(t0));
    tally.add(pipeline_accuracies(r));
    check_pipeline_result(ds, r, res);
    tr.set_enabled(true);
    t0 = Clock::now();
    r = traced_call();
    traced.push_back(seconds_since(t0));
    tally.add(pipeline_accuracies(r));
    check_pipeline_result(ds, r, res);
  }
  tally.report("pipeline calls, traced and untraced");

  cn::Rng rng(derive(o.seed, 30));
  cn::data::Batcher batcher(ds.train, 32);
  batcher.reshuffle(rng);
  cn::nn::Sequential plain = cn::models::lenet5(1, 28, 10, rng);
  cn::nn::Sequential lip_model = plain.clone_model();
  cn::nn::Sequential comp = r.corrected_model.clone_model();
  freeze_to_compensation(comp);
  cn::nn::Adam opt_plain(1e-3f), opt_lip(1e-3f), opt_comp(2e-3f);
  cn::core::LipschitzConfig lip;
  lip.enabled = true;
  lip.sigma = 0.5f;
  const cn::analog::VariationModel vm{cn::analog::VariationKind::kLognormal, 0.5f};
  for (int64_t k = 0; k < 20; ++k) {
    const cn::data::Batch batch = batcher.get(k % batcher.num_batches());
    train_step(plain, batch, opt_plain, nullptr, nullptr, rng, "trainer.step/plain");
    train_step(lip_model, batch, opt_lip, &lip, nullptr, rng, "trainer.step/lipschitz");
    train_step(comp, batch, opt_comp, nullptr, &vm, rng, "compensation.step");
  }

  cn::nn::Sequential model = r.corrected_model.clone_model();
  const cn::Tensor x = batch_of(ds.test, 128);
  for (int k = 0; k < 10; ++k) {
    {
      Span s("fusion.plan_build");
      cn::nn::FusedPlan plan(model);
    }
    cn::nn::set_fusion_enabled(true);
    {
      Span s("nn.forward/fused/b128");
      model.forward(x, false);
    }
    cn::nn::set_fusion_enabled(false);
    {
      Span s("nn.forward/unfused/b128");
      model.forward(x, false);
    }
  }
  cn::nn::reset_fusion_enabled();

  cn::runtime::ChipFarmOptions fo;
  fo.instances = 16;
  fo.max_live = 16;
  fo.seed = derive(o.seed, 31);
  cn::runtime::ChipFarm farm(r.corrected_model, vm, fo);
  for (int64_t c = 0; c < fo.instances; ++c) {
    Span s("factor_farm.chip");
    farm.chip(c);
  }

  prof.refresh();
  prof.set("data.gen_s", prof.self_us("data.make_dataset") * 1e-6);
  for (const std::string& st : kStages)
    prof.set("pipeline.stage_s." + st, prof.self_us("pipeline.stage/" + st) * 1e-6);
  const double lip_ms = prof.dur_us("trainer.step/lipschitz") * 1e-3;
  prof.set("trainer.step_ms.plain", prof.dur_us("trainer.step/plain") * 1e-3);
  prof.set("trainer.step_ms.lipschitz", lip_ms);
  prof.set("lipschitz.penalty_ms", prof.self_us("lipschitz.penalty") * 1e-3);
  prof.set("lipschitz.penalty_share", prof.self_us("lipschitz.penalty") * 1e-3 / lip_ms);
  prof.set("compensation.step_ms", prof.dur_us("compensation.step") * 1e-3);
  prof.set("nn.forward_ms.fused.b128", prof.self_us("nn.forward/fused/b128") * 1e-3);
  prof.set("nn.forward_ms.unfused.b128", prof.self_us("nn.forward/unfused/b128") * 1e-3);
  prof.set("fusion.plan_build_ms", prof.self_us("fusion.plan_build") * 1e-3);
  prof.set("factor_farm.chip_ms", prof.self_us("factor_farm.chip") * 1e-3);
  prof.set("trace.overhead_frac.pipeline", overhead(traced, untraced));
  say("pipeline: run_correctnet %.3f s untraced, %.3f s traced (fastest of 2)",
      quantile(untraced, 0), quantile(traced, 0));
  return r;
}

// Campaign::run untraced and traced, then every cell alone.
void trace_campaign(const RunOptions& o, const cn::data::SplitDataset& ds,
                    const cn::core::PipelineResult& r, Profile& prof, Result& res) {
  Tracer& tr = Tracer::global();
  tr.set_workload("campaign");
  cn::faultsim::Campaign campaign = make_campaign(o.seed, 0, r);
  std::vector<double> untraced, traced;
  std::string key;
  cn::faultsim::CampaignReport rep;
  for (int k = 0; k < 2; ++k) {
    tr.set_enabled(false);
    Clock::time_point t0 = Clock::now();
    const std::string untraced_key = report_key(campaign.run(ds.test));
    untraced.push_back(seconds_since(t0));
    tr.set_enabled(true);
    t0 = Clock::now();
    {
      Span s("campaign.run");
      rep = campaign.run(ds.test);
    }
    traced.push_back(seconds_since(t0));
    if (k == 0) key = untraced_key;
    res.check(untraced_key == key && report_key(rep) == key,
              "campaign report repeats byte for byte, traced and untraced");
  }

  // The cells of Campaign::run: the shipped faults, the three models, remap
  // off and on. Chips stay resident so programming and evaluation time
  // apart; cells run one after another.
  std::vector<cn::faultsim::FaultSpec> faults = {cn::faultsim::fault_free()};
  for (double v : {0.005, 0.02, 0.05}) faults.push_back(cn::faultsim::stuck_at(v));
  for (double v : {10.0, 100.0, 1000.0}) faults.push_back(cn::faultsim::drift(v));
  for (double v : {0.05, 0.1}) faults.push_back(cn::faultsim::ir_drop(v));
  for (double v : {350.0, 400.0}) faults.push_back(cn::faultsim::thermal(v));
  const cn::nn::Sequential* models[] = {&r.base_model, &r.lipschitz_model, &r.corrected_model};
  cn::analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  on_pool_worker([&] {
    for (size_t fi = 0; fi < faults.size(); ++fi) {
      const cn::analog::FaultList list = faults[fi].list();
      for (const cn::nn::Sequential* m : models) {
        for (bool remap : {false, true}) {
          Span cell("campaign.cell");
          cn::runtime::ChipFarmOptions fo;
          fo.instances = 6;
          fo.max_live = 6;
          fo.seed = derive(o.seed, 40 + fi);
          fo.remap.enabled = remap;
          cn::runtime::ChipFarm farm(*m, dev, fo, list);
          const std::string kind =
              faults[fi].kind == "stuck_at" && remap ? "stuck_at_remap" : "other";
          for (int64_t c = 0; c < fo.instances; ++c) {
            Span s("chip_farm.program/" + kind);
            farm.chip(c);
          }
          cn::runtime::McEngineOptions eo;
          eo.threads = 1;
          Span s("mc_engine.accuracy");
          cn::runtime::McEngine(farm, eo).accuracy(ds.test);
        }
      }
    }
  });

  prof.refresh();
  std::vector<double> program = prof.self("chip_farm.program/other");
  const std::vector<double>& stuck = prof.self("chip_farm.program/stuck_at_remap");
  program.insert(program.end(), stuck.begin(), stuck.end());
  prof.set("chip_farm.program_ms.p50", median(program) * 1e-3);
  prof.set("chip_farm.program_ms.p90", quantile(program, 0.9) * 1e-3);
  prof.set("chip_farm.program_ms.stuck_at_remap", median(stuck) * 1e-3);
  const std::vector<double>& eval = prof.self("mc_engine.accuracy");
  prof.set("mc_engine.eval_ms_per_chip", median(eval) * 1e-3 / 6.0);
  double program_sum = 0, eval_sum = 0, cell_sum = 0;
  for (double v : program) program_sum += v;
  for (double v : eval) eval_sum += v;
  for (double v : prof.dur("campaign.cell")) cell_sum += v;
  prof.set("campaign.program_share", program_sum / (program_sum + eval_sum));
  const double conc =
      static_cast<double>(cn::runtime::effective_concurrency(0, campaign.num_scenarios()));
  prof.set("scheduler.occupancy", cell_sum * 1e-6 / (conc * median(untraced)));
  int64_t defects = 0, absorbed = 0, residual = 0;
  for (const cn::faultsim::ScenarioResult& row : rep.scenarios) {
    defects += row.defects;
    absorbed += row.absorbed;
    residual += row.residual;
  }
  prof.set("remap.defects", static_cast<double>(defects));
  prof.set("remap.absorbed", static_cast<double>(absorbed));
  prof.set("remap.residual", static_cast<double>(residual));
  prof.set("trace.overhead_frac.campaign", overhead(traced, untraced));
  say("campaign: Campaign::run %.3f s untraced, %.3f s traced (fastest of 2)",
      quantile(untraced, 0), quantile(traced, 0));
}

// The lane under sparse, dense and closed-loop traffic, then the served chip
// node by node and the exec target's kernel peak.
void trace_serve(const RunOptions& o, const cn::data::SplitDataset& ds,
                 const cn::core::PipelineResult& r, Profile& prof, Result& res) {
  Tracer& tr = Tracer::global();
  tr.set_workload("serve");
  std::unique_ptr<cn::runtime::ModelRouter> router;
  {
    Span s("serve.make_router");
    router = make_router(r.corrected_model, o.seed);
  }
  const ServeRefs refs = make_refs(r.corrected_model, o.seed, ds.test);
  const double phase_s = std::max(1.0, 0.2 * o.seconds);
  tr.set_enabled(false);
  const PhaseStats sparse_untraced =
      run_open_loop(*router, ds.test, refs, kSparseRate, phase_s, derive(o.seed, 20));
  tr.set_enabled(true);
  const PhaseStats ph[3] = {
      run_open_loop(*router, ds.test, refs, kSparseRate, phase_s, derive(o.seed, 20)),
      run_open_loop(*router, ds.test, refs, kDenseRate, phase_s, derive(o.seed, 23)),
      run_closed_loop(*router, ds.test, refs, 0.25, 4, derive(o.seed, 21))};
  check_phase(sparse_untraced, "sparse phase (untraced)", res);
  for (int k = 0; k < 3; ++k) check_phase(ph[k], kPhases[static_cast<size_t>(k)] + " phase", res);
  router.reset();

  cn::runtime::ChipFarm farm(r.corrected_model, lane_device(), lane_farm_options(o.seed));
  cn::nn::Sequential& chip = farm.chip(0);
  bool labels_ok = chip.num_layers() == static_cast<int64_t>(kNodes.size());
  for (int64_t i = 0; labels_ok && i < chip.num_layers(); ++i)
    labels_ok = node_name(chip.layer(i)) == kNodes[static_cast<size_t>(i)];
  res.check(labels_ok, "served chip has the LeNet-5 layer sequence");
  if (!labels_ok) throw std::runtime_error("unexpected served chip layout");
  std::map<std::string, double> flops_b128;
  for (int64_t b : kBatches) {
    const cn::Tensor x0 = batch_of(ds.test, b);
    const int reps = b == 128 ? 20 : 40;
    std::vector<cn::Tensor> in(static_cast<size_t>(chip.num_layers()));
    for (int k = 0; k < reps; ++k) {
      // Sweeps in turn, so each call sees the caches the others left: node
      // by node, the crossbar bases, then the whole chip both ways.
      cn::Tensor x = x0;
      for (int64_t i = 0; i < chip.num_layers(); ++i) {
        in[static_cast<size_t>(i)] = x;
        Span s("node/" + kNodes[static_cast<size_t>(i)] + "/" + bname(b));
        x = chip.layer(i).forward(x, false);
      }
      for (int64_t i = 0; i < chip.num_layers(); ++i) {
        cn::nn::Layer* base = xbar_base(chip.layer(i));
        if (!base) continue;
        const std::string& n = kNodes[static_cast<size_t>(i)];
        cn::Tensor y;
        {
          Span s("node/" + n + ".xbar/" + bname(b));
          y = base->forward(in[static_cast<size_t>(i)], false);
        }
        // Crossbar MACs x 2: array inputs times output elements.
        flops_b128[n] = 2.0 * static_cast<double>(array_of(*base)->in_dim()) *
                        static_cast<double>(y.size());
      }
      {
        Span s("chip.forward/fused/" + bname(b));
        chip.forward(x0, false);
      }
      cn::nn::set_fusion_enabled(false);
      {
        Span s("chip.forward/unfused/" + bname(b));
        chip.forward(x0, false);
      }
      cn::nn::reset_fusion_enabled();
    }
  }
  // The chip forward at each phase's mean batch.
  int64_t service_batch[3];
  for (int k = 0; k < 3; ++k) {
    service_batch[k] = std::max<int64_t>(1, std::lround(ph[k].avg_batch()));
    const cn::Tensor x = batch_of(ds.test, service_batch[k]);
    for (int rep = 0; rep < 30; ++rep) {
      Span s("server.service/" + bname(service_batch[k]));
      chip.forward(x, false);
    }
  }
  const int64_t n = 512, batch = 128;
  {
    cn::Rng wrng(derive(o.seed, 50));
    cn::Tensor w({n, n}), xin({batch, n});
    wrng.fill_normal(w, 0.0f, 0.5f);
    wrng.fill_normal(xin, 0.0f, 1.0f);
    const cn::analog::CrossbarArray arr(w, lane_device(), wrng);
    for (int k = 0; k < 10; ++k) {
      Span s("exec.matmul");
      arr.matmul(xin);
    }
  }

  prof.refresh();
  for (int64_t b : kBatches) {
    // node_sum_frac pairs each round's node sweep with that round's unfused
    // forward and takes the median ratio (a sum of medians runs low).
    const std::vector<double>& whole = prof.self("chip.forward/unfused/" + bname(b));
    std::vector<double> sums(whole.size(), 0.0);
    for (const std::string& node : kNodes) {
      const std::vector<double>& us = prof.self("node/" + node + "/" + bname(b));
      if (us.size() != sums.size()) throw std::logic_error("unpaired node spans: " + node);
      prof.set("node_us." + node + "." + bname(b), median(us));
      for (size_t k = 0; k < sums.size(); ++k) sums[k] += us[k];
    }
    std::vector<double> ratio;
    for (size_t k = 0; k < sums.size(); ++k) ratio.push_back(sums[k] / whole[k]);
    for (const std::string& node : kConvNodes)
      prof.set("node_us." + node + ".xbar." + bname(b),
               prof.self_us("node/" + node + ".xbar/" + bname(b)));
    prof.set("chip.forward_us." + bname(b), prof.self_us("chip.forward/fused/" + bname(b)));
    prof.set("chip.node_sum_frac." + bname(b), median(ratio));
  }
  // Crossbar work over the whole node's time (a compensated conv's node also
  // runs its digital generator and compensator).
  for (const std::string& node : kAnalogNodes)
    prof.set("node_gflops." + node + ".b128",
             flops_b128.at(node) / (prof.self_us("node/" + node + "/b128") * 1e3));
  prof.set("exec.peak_gflops",
           2.0 * static_cast<double>(n * n * batch) / (prof.self_us("exec.matmul") * 1e3));

  for (int k = 0; k < 3; ++k) {
    const PhaseStats& p = ph[k];
    const std::string& name = kPhases[static_cast<size_t>(k)];
    const double service_ms = prof.self_us("server.service/" + bname(service_batch[k])) * 1e-3;
    prof.set("server.avg_batch." + name, p.avg_batch());
    prof.set("server.service_ms." + name, service_ms);
    if (name == "closed") {
      // Sparse and dense batches are almost never full.
      prof.set("server.full_batch_frac.closed",
               static_cast<double>(p.full_batches) / static_cast<double>(p.batches));
      continue;
    }
    prof.set("server.wait_ms." + name, p.p(0.5) - service_ms);
    prof.set("serve." + name + "_p50_ms", p.p(0.5));
    prof.set("serve." + name + "_p99_ms", p.p(0.99));
    prof.set("loadgen.late_ms." + name + ".p99", quantile(p.late_ms, 0.99));
    prof.set("loadgen.late_ms." + name + ".max", max_of(p.late_ms));
  }
  const std::vector<double>& submit = prof.self("router.submit");
  prof.set("router.submit_us.p50", median(submit));
  prof.set("router.submit_us.p99", quantile(submit, 0.99));
  prof.set("trace.overhead_frac.serve", ph[0].p(0.5) / sparse_untraced.p(0.5) - 1.0);
  say("serve: sparse p50 %.4f ms untraced, %.4f ms traced", sparse_untraced.p(0.5),
      ph[0].p(0.5));
}

}  // namespace

Result run_traced(const RunOptions& o, const std::string& workload) {
  Result res;
  Profile prof(res);
  Tracer& tr = Tracer::global();
  say("traced pass (requested for workload %s; the pass covers all three)",
      workload.c_str());
  tr.set_enabled(true);
  tr.set_workload("pipeline");
  cn::data::SplitDataset ds;
  {
    Span s("data.make_dataset");
    ds = make_dataset(o.seed);
  }
  const cn::core::PipelineResult r = trace_pipeline(o, ds, prof, res);
  trace_campaign(o, ds, r, prof, res);
  trace_serve(o, ds, r, prof, res);
  tr.set_enabled(false);
  say("traced pass: %zu spans", tr.size());
  for (const auto& [name, m] : res.metrics)
    say("  %-40s %14.6g %s", name.c_str(), m.value, m.unit.c_str());
  return res;
}

}  // namespace perfbench
