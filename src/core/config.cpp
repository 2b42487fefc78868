#include "core/config.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cn::core {

namespace {

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Full parses: '1O' silently meaning 1 would mis-size runs. "" reads as 0.
template <class T, class Sto>
T parse_full(const std::string& v, const std::string& where, const char* what,
             Sto sto) {
  size_t pos = 0;
  T parsed{};
  try {
    if (!v.empty()) parsed = sto(v, &pos);
  } catch (...) {
    pos = v.size() + 1;
  }
  if (pos != v.size())
    throw std::runtime_error(std::string("KeyValueConfig: unparsable ") + what +
                             " '" + v + "' in " + where);
  return parsed;
}

int64_t parse_int(const std::string& v, const std::string& where) {
  auto sto = [](const std::string& s, size_t* p) { return std::stoll(s, p); };
  return parse_full<int64_t>(v, where, "integer", sto);
}
double parse_number(const std::string& v, const std::string& where) {
  auto sto = [](const std::string& s, size_t* p) { return std::stod(s, p); };
  return parse_full<double>(v, where, "number", sto);
}

// '2' or 'true' read as "on" would hide a typo behind a switched-on axis.
bool parse_bool(const std::string& v, const std::string& where) {
  if (v.empty() || v == "0" || v == "1") return v == "1";
  throw std::runtime_error("KeyValueConfig: expected 0 or 1, got '" + v +
                           "' in " + where);
}

// Comma-separated cells, trimmed, blanks skipped. A typo'd cell must fail
// loudly: silently dropping it would shrink a campaign grid.
template <class T>
std::vector<T> parse_cells(const std::string& v, const std::string& where,
                           T (*parse)(const std::string&, const std::string&)) {
  std::vector<T> out;
  std::istringstream is(v);
  std::string cell;
  while (std::getline(is, cell, ','))
    if (!(cell = trimmed(cell)).empty()) out.push_back(parse(cell, where));
  return out;
}

void check_value(const Knob& k, const std::string& v, const std::string& where) {
  switch (k.type) {
    case KnobType::kInt: parse_int(v, where); break;
    case KnobType::kNumber:
      // nan/inf parse, but no number knob means anything by them.
      if (!std::isfinite(parse_number(v, where)))
        throw std::runtime_error("KeyValueConfig: number '" + v +
                                 "' is not finite in " + where);
      break;
    case KnobType::kBool: parse_bool(v, where); break;
    case KnobType::kList: parse_cells(v, where, parse_number); break;
    case KnobType::kIntList: parse_cells(v, where, parse_int); break;
    case KnobType::kString: break;
  }
}

const Knob* find_row(const Knobs& rows, const std::string& name) {
  for (const Knob& k : rows)
    if (k.name() == name) return &k;
  return nullptr;
}

std::string in_key(const std::string& key) { return "key '" + key + "'"; }

}  // namespace

const char* type_name(KnobType t) {
  static const char* const kNames[] = {"int",      "number", "list",
                                       "int list", "0|1",    "string"};
  return kNames[static_cast<int>(t)];
}

const Knob& knob(const Knobs& rows, const std::string& name) {
  const Knob* k = find_row(rows, name);
  if (!k) throw std::logic_error("KeyValueConfig: '" + name + "' is not a declared knob");
  return *k;
}

void append(Knobs& to, const Knobs& from, const std::vector<std::string>& names) {
  for (const std::string& n : names) to.push_back(knob(from, n));
}

std::string flag_usage(const Knobs& rows) {
  std::string out;
  for (const Knob& k : rows)
    if (!k.flag.empty() && k.retired.empty())
      out += "  " + k.flag +
             (k.type == KnobType::kBool ? "" : std::string(" ") + type_name(k.type)) +
             (k.type == KnobType::kBool || k.def.empty() ? "" : " (default " + k.def + ")") +
             "\n";
  return out + "  (docs/CONFIG.md says what each one means)\n";
}

// ---------- RuntimeConfig ----------

int RuntimeConfig::epochs(int base) const {
  return std::max(1, static_cast<int>(base * epoch_scale + 0.5));
}

const Knobs& RuntimeConfig::knobs() {
  // {key, type, default, flag, env}
  static const Knobs rows = {
      {"", KnobType::kInt, "25", "", "CORRECTNET_MC"},
      {"", KnobType::kInt, "100", "", "CORRECTNET_EPOCHS"},
      {"", KnobType::kInt, "4000", "", "CORRECTNET_TRAIN"},
      {"", KnobType::kInt, "800", "", "CORRECTNET_TEST"},
  };
  return rows;
}

RuntimeConfig RuntimeConfig::from_env() {
  const KeyValueConfig env = KeyValueConfig::from_env(knobs());
  RuntimeConfig c;
  c.mc_samples = static_cast<int>(env.integer("CORRECTNET_MC"));
  c.epoch_scale = static_cast<double>(env.integer("CORRECTNET_EPOCHS")) / 100.0;
  c.train_cap = env.integer("CORRECTNET_TRAIN");
  c.test_cap = env.integer("CORRECTNET_TEST");
  return c;
}

const RuntimeConfig& RuntimeConfig::get() {
  static const RuntimeConfig cfg = from_env();
  return cfg;
}

// ---------- KeyValueConfig ----------

KeyValueConfig KeyValueConfig::from_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("KeyValueConfig: cannot open " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return from_string(ss.str());
}

KeyValueConfig KeyValueConfig::from_string(const std::string& text) {
  KeyValueConfig cfg;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // A non-blank line that is not a pair is a malformed config, not
      // decoration: 'chips 8' silently ignored would run the default.
      if (!trimmed(line).empty())
        throw std::runtime_error("KeyValueConfig: malformed line " +
                                 std::to_string(lineno) + " (no '='): '" +
                                 trimmed(line) + "'");
      continue;
    }
    const std::string key = trimmed(line.substr(0, eq));
    if (key.empty())
      throw std::runtime_error("KeyValueConfig: malformed line " +
                               std::to_string(lineno) + " (empty key)");
    // Duplicate keys throw instead of one silently winning; programmatic
    // overrides go through set().
    if (cfg.find(key))
      throw std::runtime_error("KeyValueConfig: duplicate key '" + key +
                               "' at line " + std::to_string(lineno));
    cfg.kv_.emplace_back(key, trimmed(line.substr(eq + 1)));
  }
  if (cfg.kv_.empty())
    throw std::runtime_error(
        "KeyValueConfig: no key=value pairs (empty config)");
  return cfg;
}

KeyValueConfig KeyValueConfig::from_env(const Knobs& rows) {
  KeyValueConfig cfg;
  for (const Knob& k : rows) {
    if (k.env.empty()) continue;
    // The one environment read in the tree: every CORRECTNET_* variable
    // reaches the code through a row.
    const char* v = std::getenv(k.env.c_str());
    if (!v || !*v) continue;
    if (!k.retired.empty()) throw std::runtime_error(k.env + " " + k.retired);
    check_value(k, v, k.env);
    cfg.kv_.emplace_back(k.name(), v);
  }
  cfg.rows_ = &rows;
  return cfg;
}

KeyValueConfig KeyValueConfig::from_flags(const Knobs& rows, int argc,
                                          const char* const* argv, int first) {
  KeyValueConfig cfg;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto it = std::find_if(rows.begin(), rows.end(),
                                 [&](const Knob& k) { return k.flag == flag; });
    if (flag.empty() || it == rows.end())
      throw std::runtime_error("unknown flag '" + flag + "'");
    if (!it->retired.empty()) throw std::runtime_error(flag + " " + it->retired);
    std::string value = "1";
    if (it->type != KnobType::kBool) {
      if (i + 1 >= argc) throw std::runtime_error("flag " + flag + " needs a value");
      value = argv[++i];
    }
    check_value(*it, value, "flag " + flag);
    cfg.set(it->name(), value);
  }
  cfg.rows_ = &rows;
  return cfg;
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  for (auto& kv : kv_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  kv_.emplace_back(key, value);
}

void KeyValueConfig::merge(const KeyValueConfig& over, const Knobs& rows) {
  for (const auto& [key, value] : over.kv_)
    if (find_row(rows, key)) set(key, value);
}

void KeyValueConfig::check(const Knobs& rows) {
  std::string unknown;
  for (const auto& [key, value] : kv_) {
    const Knob* k = find_row(rows, key);
    if (k && !k->retired.empty())
      throw std::runtime_error("KeyValueConfig: key '" + key + "' " + k->retired);
    if (!k) unknown += (unknown.empty() ? "'" : ", '") + key + "'";
  }
  if (!unknown.empty())
    throw std::runtime_error("KeyValueConfig: unknown key(s) " + unknown);
  for (const auto& [key, value] : kv_)
    check_value(*find_row(rows, key), value, in_key(key));
  rows_ = &rows;
}

const std::string* KeyValueConfig::find(const std::string& key) const {
  for (const auto& kv : kv_)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

std::string KeyValueConfig::text(const std::string& name, bool empty_unset) const {
  const std::string* v = find(name);
  if (v && !(empty_unset && v->empty())) return *v;
  if (!rows_) throw std::logic_error("KeyValueConfig: '" + name + "' read before check()");
  return knob(*rows_, name).def;
}

std::string KeyValueConfig::str(const std::string& n) const { return text(n, false); }
int64_t KeyValueConfig::integer(const std::string& n) const {
  return parse_int(text(n, true), in_key(n));
}
double KeyValueConfig::number(const std::string& n) const {
  return parse_number(text(n, true), in_key(n));
}
bool KeyValueConfig::boolean(const std::string& n) const {
  return parse_bool(text(n, true), in_key(n));
}
std::vector<double> KeyValueConfig::numbers(const std::string& n) const {
  return parse_cells(text(n, false), in_key(n), parse_number);
}
std::vector<int64_t> KeyValueConfig::integers(const std::string& n) const {
  return parse_cells(text(n, false), in_key(n), parse_int);
}

}  // namespace cn::core
