#include "runtime/serving_config.h"

#include <set>
#include <stdexcept>

namespace cn::runtime {

namespace {

// Comma-separated id list, whitespace-trimmed; empty cells throw (a stray
// comma would silently register a ghost model).
std::vector<std::string> split_ids(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string cell = s.substr(pos, comma - pos);
    const size_t b = cell.find_first_not_of(" \t");
    const size_t e = cell.find_last_not_of(" \t");
    cell = b == std::string::npos ? "" : cell.substr(b, e - b + 1);
    if (cell.empty())
      throw std::runtime_error("serving config: empty model id in \"" + s +
                               "\"");
    out.push_back(cell);
    pos = comma + 1;
  }
  return out;
}

}  // namespace

const core::Knobs& serving_knobs() {
  using core::KnobType;
  // {key, type, default, flag}
  static const core::Knobs rows = {
      {"models", KnobType::kString, "default", "--models"},
      {"chips", KnobType::kInt, "2"},
      {"live_slots", KnobType::kInt, "0"},
      {"workers", KnobType::kInt, "2"},
      {"max_batch", KnobType::kInt, "16"},
      {"max_wait_us", KnobType::kInt, "1500"},
      {"queue_limit", KnobType::kInt, "0", "--queue-limit"},
      {"queue_budget_us", KnobType::kInt, "0", "--queue-budget-us"},
      {"admission.burn_max", KnobType::kNumber, "0"},
      {"slo_p99_ms", KnobType::kNumber, "0"},
      {"drill.kind", KnobType::kString, ""},
      {"drill.severity", KnobType::kNumber, "0"},
      {"drill.workers", KnobType::kIntList, "0"},
      {"drill.action", KnobType::kString, "remap", "--drill-action"},
  };
  return rows;
}

ServingConfig serving_from_config(const core::KeyValueConfig& in) {
  core::KeyValueConfig cfg = in;
  cfg.check(serving_knobs());
  ServingConfig sc;
  sc.models = split_ids(cfg.str("models"));
  {
    std::set<std::string> seen;
    for (const std::string& id : sc.models)
      if (!seen.insert(id).second)
        throw std::runtime_error("serving config: duplicate model id \"" + id +
                                 "\"");
  }
  sc.chips = cfg.integer("chips");
  sc.live_slots = cfg.integer("live_slots");
  sc.workers = cfg.integer("workers");
  sc.max_batch = cfg.integer("max_batch");
  sc.max_wait_us = cfg.integer("max_wait_us");
  sc.queue_limit = cfg.integer("queue_limit");
  sc.queue_budget_us = cfg.integer("queue_budget_us");
  sc.admission_burn_max = cfg.number("admission.burn_max");
  sc.slo_p99_ms = cfg.number("slo_p99_ms");
  sc.drill_kind = cfg.str("drill.kind");
  sc.drill_severity = cfg.number("drill.severity");
  sc.drill_workers = cfg.integers("drill.workers");
  sc.drill_action = cfg.str("drill.action");

  if (sc.chips < 1 || sc.workers < 1 || sc.max_batch < 1)
    throw std::runtime_error(
        "serving config: chips, workers and max_batch must be >= 1");
  if (sc.max_wait_us < 0 || sc.live_slots < 0 || sc.queue_limit < 0 ||
      sc.queue_budget_us < 0 || sc.admission_burn_max < 0 || sc.slo_p99_ms < 0)
    throw std::runtime_error("serving config: negative threshold");
  if (sc.drill_action != "degrade" && sc.drill_action != "evict" &&
      sc.drill_action != "remap")
    throw std::runtime_error("serving config: drill.action must be degrade, "
                             "evict or remap (got \"" +
                             sc.drill_action + "\")");
  for (int64_t w : sc.drill_workers)
    if (w < 0 || w >= sc.workers)
      throw std::runtime_error("serving config: drill.workers index " +
                               std::to_string(w) + " outside [0, " +
                               std::to_string(sc.workers) + ")");
  return sc;
}

}  // namespace cn::runtime
