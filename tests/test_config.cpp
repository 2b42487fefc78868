#include "core/config.h"

#include <cstdlib>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "../examples/frontend_knobs.h"
#include "faultsim/campaign.h"
#include "mutation_testutil.h"
#include "nn/fusion.h"
#include "obs/metrics.h"
#include "runtime/serving_config.h"

namespace cn::core {
namespace {

TEST(RuntimeConfig, SingletonIsStable) {
  const RuntimeConfig& a = RuntimeConfig::get();
  const RuntimeConfig& b = RuntimeConfig::get();
  EXPECT_EQ(&a, &b);
}

TEST(RuntimeConfig, DefaultsAreSane) {
  const RuntimeConfig& c = RuntimeConfig::get();
  EXPECT_GE(c.mc_samples, 1);
  EXPECT_GT(c.epoch_scale, 0.0);
  EXPECT_GE(c.train_cap, 1);
  EXPECT_GE(c.test_cap, 1);
}

TEST(RuntimeConfig, PartialEnvParseThrows) {
  // Same full-parse rule as a config file value: 'CORRECTNET_EPOCHS=1O' must
  // not silently mean 1, and garbage must not silently mean the default.
  const char* prev = std::getenv("CORRECTNET_EPOCHS");
  const std::string saved = prev ? prev : "";
  for (const char* bad : {"1O", "abc"}) {
    ::setenv("CORRECTNET_EPOCHS", bad, 1);
    try {
      (void)RuntimeConfig::from_env();
      ADD_FAILURE() << "CORRECTNET_EPOCHS=" << bad << " must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CORRECTNET_EPOCHS"),
                std::string::npos)
          << e.what();
    }
  }
  ::setenv("CORRECTNET_EPOCHS", "250", 1);
  EXPECT_DOUBLE_EQ(RuntimeConfig::from_env().epoch_scale, 2.5);
  if (prev)
    ::setenv("CORRECTNET_EPOCHS", saved.c_str(), 1);
  else
    ::unsetenv("CORRECTNET_EPOCHS");
}

TEST(RuntimeConfig, EpochScalingNeverBelowOne) {
  RuntimeConfig c;
  c.epoch_scale = 0.01;
  EXPECT_EQ(c.epochs(5), 1);
  c.epoch_scale = 1.0;
  EXPECT_EQ(c.epochs(5), 5);
  c.epoch_scale = 2.0;
  EXPECT_EQ(c.epochs(5), 10);
  c.epoch_scale = 0.5;
  EXPECT_EQ(c.epochs(5), 3);  // rounds to nearest
}

TEST(KeyValueConfig, ParsesCommentsWhitespaceAndEmptyValues) {
  KeyValueConfig cfg = KeyValueConfig::from_string(
      "# a comment line\n"
      "  chips = 8   # trailing comment\n"
      "name= lenet \n"
      "rate=0.5\n"
      "list = 1, 2.5 ,3\n"
      "empty =\n"
      "\n"
      "   \t\n");
  const Knobs rows = {{"chips", KnobType::kInt, "-1"}, {"name"}, {"rate"}, {"list"},
                      {"empty", KnobType::kInt, "4"}, {"missing", KnobType::kList, "7"}};
  cfg.check(rows);
  EXPECT_TRUE(cfg.has("chips"));
  EXPECT_EQ(cfg.integer("chips"), 8);
  EXPECT_EQ(cfg.str("name"), "lenet");
  EXPECT_DOUBLE_EQ(cfg.number("rate"), 0.5);
  const std::vector<double> list = cfg.numbers("list");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 2.5);
  EXPECT_TRUE(cfg.has("empty"));
  EXPECT_EQ(cfg.str("empty"), "");
  EXPECT_EQ(cfg.integer("empty"), 4);  // empty value -> row default
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_EQ(cfg.numbers("missing").size(), 1u);
}

TEST(KeyValueConfig, SetOverridesOrAppends) {
  // The override layer the CLI flags use now that duplicate keys throw.
  KeyValueConfig cfg = KeyValueConfig::from_string("chips = 8\n");
  const Knobs rows = {{"chips", KnobType::kInt}, {"remap", KnobType::kInt}};
  cfg.check(rows);
  cfg.set("chips", "12");
  EXPECT_EQ(cfg.integer("chips"), 12);
  cfg.set("remap", "1");
  EXPECT_EQ(cfg.integer("remap"), 1);
}

TEST(KeyValueConfig, DuplicateKeyThrows) {
  // Two values for one knob must not silently race; overrides go via set().
  EXPECT_THROW(KeyValueConfig::from_string("chips = 8\nchips = 12\n"),
               std::runtime_error);
}

TEST(KeyValueConfig, MalformedLineThrows) {
  // 'chips 8' silently ignored would run the default chip count.
  EXPECT_THROW(KeyValueConfig::from_string("chips 8\n"), std::runtime_error);
  EXPECT_THROW(KeyValueConfig::from_string("chips = 8\nnot a pair\n"),
               std::runtime_error);
  // '= value' has no key.
  EXPECT_THROW(KeyValueConfig::from_string("= 3\n"), std::runtime_error);
}

TEST(KeyValueConfig, EmptyConfigThrows) {
  // A config with no pairs at all (empty file, or only comments) is a
  // mistake, not an empty campaign.
  EXPECT_THROW(KeyValueConfig::from_string(""), std::runtime_error);
  EXPECT_THROW(KeyValueConfig::from_string("# only comments\n\n"),
               std::runtime_error);
}

TEST(KeyValueConfig, UnknownKeysFailValidation) {
  KeyValueConfig cfg =
      KeyValueConfig::from_string("chips = 8\nstuck.ratez = 0.1\n");
  const Knobs rows = {{"chips", KnobType::kInt, "8"}, {"stuck.rates", KnobType::kList}};
  EXPECT_THROW(cfg.check(rows), std::runtime_error);
  const Knobs typo = {{"chips", KnobType::kInt, "8"}, {"stuck.ratez", KnobType::kList}};
  EXPECT_NO_THROW(cfg.check(typo));
  // Bound rows supply the defaults; an undeclared name is a code bug.
  EXPECT_EQ(cfg.integer("chips"), 8);
  EXPECT_THROW(cfg.integer("chps"), std::logic_error);
}

TEST(KeyValueConfig, FlagsParseThroughTheRows) {
  const Knobs rows = {
      {"chips", KnobType::kInt, "8", "--chips"},
      {"remap", KnobType::kBool, "0", "--remap"},
      {"old", KnobType::kString, "", "--old", "", "was removed; use --chips"},
  };
  auto parse = [&](std::vector<const char*> argv) {
    return KeyValueConfig::from_flags(rows, static_cast<int>(argv.size()),
                                      argv.data(), 0);
  };
  EXPECT_EQ(parse({}).integer("chips"), 8);
  const KeyValueConfig some = parse({"--remap", "--chips", "3"});
  EXPECT_EQ(some.integer("chips"), 3);
  EXPECT_TRUE(some.boolean("remap"));  // a 0|1 flag takes no value
  // Every failure names the flag.
  for (const std::vector<const char*>& bad : std::vector<std::vector<const char*>>{
           {"--chips", "abc"}, {"--chip", "3"}, {"--chips"}, {"--old", "1"}}) {
    try {
      parse(bad);
      ADD_FAILURE() << bad[0] << " must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(bad[0]), std::string::npos) << e.what();
    }
  }
  EXPECT_NE(flag_usage(rows).find("--chips int"), std::string::npos);
  EXPECT_EQ(flag_usage(rows).find("--old"), std::string::npos);
}

TEST(KeyValueConfig, UnparsableListCellThrows) {
  // A typo'd severity must not silently shrink a campaign grid.
  KeyValueConfig cfg =
      KeyValueConfig::from_string("rates = 0.1, o.2\ntrailing = 0.5x\n");
  const Knobs rows = {{"rates"}, {"trailing"}};  // strings: the getter parses
  cfg.check(rows);
  EXPECT_THROW(cfg.numbers("rates"), std::runtime_error);
  EXPECT_THROW(cfg.numbers("trailing"), std::runtime_error);
}

TEST(KeyValueConfig, PartialScalarParsesThrow) {
  // 'chips = 1O' must not silently run with 1 chip instead of 10.
  KeyValueConfig cfg =
      KeyValueConfig::from_string("chips = 1O\nrate = 0.5x\n");
  const Knobs rows = {{"chips"}, {"rate"}};  // strings: the getter parses
  cfg.check(rows);
  EXPECT_THROW(cfg.integer("chips"), std::runtime_error);
  EXPECT_THROW(cfg.number("rate"), std::runtime_error);
  // A 0|1 row reads exactly 0 or 1: 'remap = 2' must not mean "on".
  for (const char* bad : {"remap = 2", "control = -1", "remap.pair_swap = 7"})
    EXPECT_THROW(faultsim::campaign_from_config(KeyValueConfig::from_string(bad)),
                 std::runtime_error) << bad;
  // Same rule for the env: CORRECTNET_SIGNAL_FLUSH=true was silently ignored.
  ::setenv("CORRECTNET_SIGNAL_FLUSH", "true", 1);
  EXPECT_THROW(KeyValueConfig::from_env(obs::knobs()), std::runtime_error);
  ::unsetenv("CORRECTNET_SIGNAL_FLUSH");
}

// A row as docs/CONFIG.md writes it: | Key | Type | Default | Flag | Env |
// (the Meaning cell, the help text's one home, follows).
std::string cells(const Knob& k) {
  auto code = [](const std::string& v) { return v.empty() ? "—" : "`" + v + "`"; };
  std::string type = type_name(k.type);
  if (type == "0|1") type = "0\\|1";
  return "| " + code(k.key) + " | " + type + " | " + code(k.def) + " | " +
         code(k.flag) + " | " + code(k.env) + " |";
}

// Checks the docs/CONFIG.md table between `<!-- marker:begin/end -->`
// against code rows cell by cell. Retired rows are not documented, nor are
// rows identical to one of `elsewhere` (they have their own table).
void expect_table_matches(const std::string& marker, const Knobs& knobs,
                          const Knobs& elsewhere = {}) {
  std::set<std::string> documented, declared, shared;
  for (const Knob& k : elsewhere) shared.insert(cells(k));
  for (const Knob& k : knobs)
    if (k.retired.empty() && !shared.count(cells(k))) declared.insert(cells(k));
  std::ifstream in(std::string(CN_SOURCE_DIR) + "/docs/CONFIG.md");
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.find(marker + ":") != std::string::npos)
      in_table = line.find(":begin") != std::string::npos;
    if (!in_table || line.rfind("| ", 0) != 0 || line.rfind("| Key ", 0) == 0)
      continue;
    size_t end = 0;  // just past the Env cell's closing '|'
    for (int bars = 0; bars < 6 && end < line.size(); ++end)
      bars += line[end] == '|' && (end == 0 || line[end - 1] != '\\');
    documented.insert(line.substr(0, end));
  }
  ASSERT_FALSE(documented.empty()) << marker << " table missing from docs/CONFIG.md";
  for (const std::string& row : declared)
    EXPECT_TRUE(documented.count(row))
        << marker << ": declared row " << row << " is missing or differs in docs/CONFIG.md";
  for (const std::string& row : documented)
    EXPECT_TRUE(declared.count(row))
        << marker << ": documented row " << row << " matches no declared row";
}

TEST(ConfigDocs, MarkedTablesMatchTheRowsCellByCell) {
  // Campaign files also take the obs keys; those have their own table.
  expect_table_matches("campaign-keys", faultsim::campaign_knobs(), obs::knobs());
  expect_table_matches("serving-keys", runtime::serving_knobs());
  expect_table_matches("obs-knobs", obs::knobs());
  Knobs env = RuntimeConfig::knobs();
  append(env, nn::fusion_knobs(), {"CORRECTNET_FUSION"});
  expect_table_matches("env-knobs", env);
  // The frontends' own flags; the library rows they take are above.
  Knobs library = faultsim::campaign_knobs();
  append(library, runtime::serving_knobs(),
         {"models", "queue_limit", "queue_budget_us", "drill.action"});
  expect_table_matches("cli-flags", examples::cli_knobs(), library);
  expect_table_matches("faults-flags", examples::faults_knobs(), library);
  expect_table_matches("demo-flags", examples::demo_knobs(), library);
  expect_table_matches("sweep-flags", examples::sweep_knobs(), library);
}

TEST(CampaignConfig, RetiredNamesFailLoudly) {
  // The campaign `fusion` key is gone (fusion is bitwise-exact, so reports
  // never depended on it); its error points at the knob that remains.
  try {
    faultsim::campaign_from_config(
        KeyValueConfig::from_string("stuck.rates = 0.01\nfusion = 0\n"));
    ADD_FAILURE() << "`fusion = 0` must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CORRECTNET_FUSION"),
              std::string::npos)
        << e.what();
  }
  // The `target` key went with the execution-target table: any value, a
  // once-valid name included, throws saying what decides the level now.
  for (const char* name : {"simd", "huge-tile"}) {
    try {
      faultsim::campaign_from_config(KeyValueConfig::from_string(
          std::string("stuck.rates = 0.01\ntarget = ") + name + "\n"));
      ADD_FAILURE() << "`target = " << name << "` must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("widest ISA level"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignConfig, OutOfRangeValuesFailAtConstruction) {
  // None of these may reach training: unchecked, batch 0, tile 0 and
  // adc_bits 31 crash after it, and the rest silently corrupt the report
  // (batch -1, bits past int width, levels 1, a nan threshold, an inf or
  // negative sigma).
  for (const char* bad :
       {"batch = 0", "batch = -1", "tile = 0", "adc_bits = 31", "adc_bits = 99",
        "adc_bits = -1", "dac_bits = 40", "levels = 1", "levels = -3",
        "catastrophic = nan", "catastrophic = 1.5", "catastrophic = -0.1",
        "read_sigma = inf", "read_sigma = -0.1", "program_sigma = -1"})
    EXPECT_ANY_THROW(faultsim::campaign_from_config(KeyValueConfig::from_string(
        std::string("stuck.rates = 0.01\n") + bad + "\n")))
        << bad;
  // The edges of every range stay valid.
  for (const char* ok : {"batch = 1", "tile = 1", "adc_bits = 30", "dac_bits = 30",
                         "levels = 2", "catastrophic = 0", "catastrophic = 1",
                         "read_sigma = 0.5"})
    EXPECT_NO_THROW(faultsim::campaign_from_config(KeyValueConfig::from_string(
        std::string("stuck.rates = 0.01\n") + ok + "\n")))
        << ok;
  // Direct API callers get the same check, as std::invalid_argument.
  faultsim::CampaignOptions opts;
  opts.batch_size = 0;
  EXPECT_THROW(faultsim::Campaign{opts}, std::invalid_argument);
}

TEST(KeyValueConfig, MissingFileThrows) {
  EXPECT_THROW(KeyValueConfig::from_file("/nonexistent/campaign.cfg"),
               std::runtime_error);
}

TEST(ServingConfig, ParsesOverridesAndDefaults) {
  const KeyValueConfig cfg = KeyValueConfig::from_string(
      "models = alpha, beta\nchips = 3\nworkers = 4\nqueue_limit = 32\n"
      "queue_budget_us = 5000\ndrill.kind = stuck_at\ndrill.severity = 0.05\n"
      "drill.workers = 1, 2\ndrill.action = evict\n");
  const runtime::ServingConfig sc = runtime::serving_from_config(cfg);
  ASSERT_EQ(sc.models.size(), 2u);
  EXPECT_EQ(sc.models[0], "alpha");
  EXPECT_EQ(sc.models[1], "beta");
  EXPECT_EQ(sc.chips, 3);
  EXPECT_EQ(sc.workers, 4);
  EXPECT_EQ(sc.queue_limit, 32);
  EXPECT_EQ(sc.queue_budget_us, 5000);
  EXPECT_EQ(sc.drill_kind, "stuck_at");
  EXPECT_EQ(sc.drill_action, "evict");
  ASSERT_EQ(sc.drill_workers.size(), 2u);
  EXPECT_EQ(sc.drill_workers[0], 1);
  EXPECT_EQ(sc.drill_workers[1], 2);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(sc.max_batch, 16);
  EXPECT_EQ(sc.live_slots, 0);
}

TEST(ServingConfig, RejectsMalformedDeployments) {
  auto parse = [](const std::string& text) {
    return runtime::serving_from_config(KeyValueConfig::from_string(text));
  };
  EXPECT_THROW(parse("models = alpha, alpha\n"), std::runtime_error)
      << "duplicate model ids";
  EXPECT_THROW(parse("models = alpha,,beta\n"), std::runtime_error)
      << "empty model id cell";
  EXPECT_THROW(parse("models = a\nworkers = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("models = a\nqueue_limit = -1\n"), std::runtime_error);
  EXPECT_THROW(parse("models = a\ndrill.action = reboot\n"),
               std::runtime_error);
  EXPECT_THROW(parse("models = a\nworkers = 2\ndrill.workers = 2\n"),
               std::runtime_error)
      << "drill worker index outside [0, workers)";
  EXPECT_THROW(parse("models = a\nbogus_key = 1\n"), std::runtime_error);
  // An int list reads whole integers: 1.5 must not drill worker 1.
  EXPECT_THROW(parse("models = a\nworkers = 2\ndrill.workers = 1.5\n"),
               std::runtime_error);
}

// ---------- struct defaults agree with the rows ----------
// A member initializer and its row default are two spellings of one value;
// an empty config (or environment) must read back the default-constructed
// struct field by field, so changing either spelling alone fails here.

TEST(ServingConfig, EmptyConfigMatchesStructDefaults) {
  const runtime::ServingConfig got = runtime::serving_from_config(KeyValueConfig{});
  const runtime::ServingConfig want{};
  EXPECT_EQ(got.models, want.models);
  EXPECT_EQ(got.chips, want.chips);
  EXPECT_EQ(got.live_slots, want.live_slots);
  EXPECT_EQ(got.workers, want.workers);
  EXPECT_EQ(got.max_batch, want.max_batch);
  EXPECT_EQ(got.max_wait_us, want.max_wait_us);
  EXPECT_EQ(got.queue_limit, want.queue_limit);
  EXPECT_EQ(got.queue_budget_us, want.queue_budget_us);
  EXPECT_EQ(got.admission_burn_max, want.admission_burn_max);
  EXPECT_EQ(got.slo_p99_ms, want.slo_p99_ms);
  EXPECT_EQ(got.drill_kind, want.drill_kind);
  EXPECT_EQ(got.drill_severity, want.drill_severity);
  EXPECT_EQ(got.drill_workers, want.drill_workers);
  EXPECT_EQ(got.drill_action, want.drill_action);
}

TEST(CampaignConfig, EmptyConfigMatchesOptionDefaults) {
  const faultsim::Campaign c = faultsim::campaign_from_config(KeyValueConfig{});
  const faultsim::CampaignOptions& got = c.options();
  const faultsim::CampaignOptions want{};
  EXPECT_EQ(got.chips, want.chips);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.batch_size, want.batch_size);
  EXPECT_EQ(got.tile, want.tile);
  EXPECT_EQ(got.parallel_scenarios, want.parallel_scenarios);
  EXPECT_EQ(got.catastrophic_below, want.catastrophic_below);
  EXPECT_EQ(got.dev.program_sigma, want.dev.program_sigma);
  EXPECT_EQ(got.dev.conductance_levels, want.dev.conductance_levels);
  EXPECT_EQ(got.dev.readout.read_sigma, want.dev.readout.read_sigma);
  EXPECT_EQ(got.dev.readout.adc_bits, want.dev.readout.adc_bits);
  EXPECT_EQ(got.dev.readout.dac_bits, want.dev.readout.dac_bits);
  EXPECT_EQ(got.remap.enabled, want.remap.enabled);
  EXPECT_EQ(got.remap.spare_rows, want.remap.spare_rows);
  EXPECT_EQ(got.remap.spare_cols, want.remap.spare_cols);
  EXPECT_EQ(got.remap.pair_swap, want.remap.pair_swap);
  // The empty grid is the fault-free control alone.
  EXPECT_EQ(c.num_faults(), 1);

  // The fault-grid rows must default to the builders' own defaults: a spec
  // built from the row values equals one built from the default arguments.
  KeyValueConfig cfg;
  cfg.check(faultsim::campaign_knobs());
  const faultsim::FaultSpec s_row =
      faultsim::stuck_at(0.01, cfg.number("stuck.high_fraction"));
  const faultsim::FaultSpec s_def = faultsim::stuck_at(0.01);
  const auto* sr = dynamic_cast<const faultsim::StuckAtFault*>(s_row.models.at(0).get());
  const auto* sd = dynamic_cast<const faultsim::StuckAtFault*>(s_def.models.at(0).get());
  ASSERT_TRUE(sr && sd);
  EXPECT_EQ(sr->rate_low, sd->rate_low);
  EXPECT_EQ(sr->rate_high, sd->rate_high);
  const faultsim::FaultSpec d_row = faultsim::drift(
      10.0, cfg.number("drift.nu"), cfg.number("drift.nu_sigma"));
  const faultsim::FaultSpec d_def = faultsim::drift(10.0);
  const auto* dr = dynamic_cast<const faultsim::DriftFault*>(d_row.models.at(0).get());
  const auto* dd = dynamic_cast<const faultsim::DriftFault*>(d_def.models.at(0).get());
  ASSERT_TRUE(dr && dd);
  EXPECT_EQ(dr->nu_mean, dd->nu_mean);
  EXPECT_EQ(dr->nu_sigma, dd->nu_sigma);
  const faultsim::FaultSpec t_row = faultsim::thermal(400.0, cfg.number("thermal.t0"));
  const faultsim::FaultSpec t_def = faultsim::thermal(400.0);
  const auto* tr = dynamic_cast<const faultsim::ThermalFault*>(t_row.models.at(0).get());
  const auto* td = dynamic_cast<const faultsim::ThermalFault*>(t_def.models.at(0).get());
  ASSERT_TRUE(tr && td);
  EXPECT_EQ(tr->t_nominal, td->t_nominal);
}

TEST(RuntimeConfig, EmptyEnvironmentMatchesStructDefaults) {
  // Unset every CORRECTNET_* row variable for the duration of the read.
  std::vector<std::pair<std::string, std::string>> saved;
  for (const Knob& k : RuntimeConfig::knobs()) {
    if (const char* v = std::getenv(k.env.c_str())) saved.emplace_back(k.env, v);
    ::unsetenv(k.env.c_str());
  }
  const RuntimeConfig got = RuntimeConfig::from_env();
  for (const auto& [name, value] : saved) ::setenv(name.c_str(), value.c_str(), 1);
  const RuntimeConfig want{};
  EXPECT_EQ(got.mc_samples, want.mc_samples);
  EXPECT_EQ(got.epoch_scale, want.epoch_scale);
  EXPECT_EQ(got.train_cap, want.train_cap);
  EXPECT_EQ(got.test_cap, want.test_cap);
}

// ---------- parser mutation harness ----------

TEST(KeyValueConfig, MutatedCorporaParseOrThrowTyped) {
  // Truncated, bit-flipped and inflated copies of valid configs: each mutant
  // either parses and checks cleanly or throws a typed runtime_error /
  // invalid_argument. Anything else (another exception type, a crash under
  // the sanitizer build) fails.
  std::ifstream in(std::string(CN_SOURCE_DIR) + "/examples/fault_campaign.cfg");
  ASSERT_TRUE(in) << "examples/fault_campaign.cfg not found";
  std::stringstream campaign;
  campaign << in.rdbuf();
  const std::string serving =
      "models = alpha, beta\nchips = 3\nworkers = 2\nmax_batch = 8\n"
      "queue_limit = 32\nqueue_budget_us = 5000\nslo_p99_ms = 12.5\n"
      "drill.kind = stuck_at\ndrill.severity = 0.05\ndrill.workers = 0, 1\n"
      "drill.action = evict\n";
  struct Corpus {
    const char* name;
    std::string text;
    bool serving;
  };
  const Corpus corpora[] = {{"fault_campaign.cfg", campaign.str(), false},
                            {"serving", serving, true}};
  std::mt19937_64 rng(16);
  int parsed = 0, rejected = 0;
  for (const Corpus& c : corpora) {
    for (int i = 0; i < 300; ++i) {
      const auto kind = static_cast<testutil::Mutation>(i % 3);
      const std::string m = testutil::mutate(c.text, kind, rng);
      try {
        KeyValueConfig cfg = KeyValueConfig::from_string(m);
        if (c.serving)
          (void)runtime::serving_from_config(cfg);
        else
          cfg.check(faultsim::campaign_knobs());
        ++parsed;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << c.name << " mutant " << i << " threw an untyped "
                      << "error (" << e.what() << "): " << testutil::printable(m);
      }
    }
  }
  // Both outcomes occur, so the harness exercises the parser and its checks.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace cn::core
