// Settings, declared once: every setting is one Knob row holding its
// config-file key, type, default, CLI flag and CORRECTNET_* variable. Config
// validation (KeyValueConfig::check), flag parsing and usage text
// (from_flags, flag_usage), the environment lookup (from_env) and the
// docs/CONFIG.md check (tests/test_config.cpp) all read the rows; what a
// knob means lives in CONFIG.md only. One precedence applies everywhere:
// row default < environment < config file < flag.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cn::core {

/// The value grammar of a row (docs/CONFIG.md "Types"); type_name() is its
/// CONFIG.md cell. Scalars and list cells must parse completely, and a 0|1
/// row reads exactly 0 or 1 (its flag takes no value).
enum class KnobType { kInt, kNumber, kList, kIntList, kBool, kString };
const char* type_name(KnobType t);

/// One setting; absent surfaces are empty. An env-only knob has no key and
/// is named by its variable. A retired row keeps its names plus the message
/// saying what replaced them; using any of them throws "<name> <retired>".
struct Knob {
  std::string key{};
  KnobType type = KnobType::kString;
  std::string def{};  // the value a getter falls back to
  std::string flag{};
  std::string env{};
  std::string retired{};

  const std::string& name() const { return key.empty() ? env : key; }
};
using Knobs = std::vector<Knob>;

/// The row named `name`; throws std::logic_error if none.
const Knob& knob(const Knobs& rows, const std::string& name);
/// Appends the rows of `from` named in `names` to `to`.
void append(Knobs& to, const Knobs& from, const std::vector<std::string>& names);
/// One "  --flag TYPE (default D)" line per live flag row.
std::string flag_usage(const Knobs& rows);

/// Experiment scaling knobs, read once from the environment: the paper's
/// experiments (250 variation samples, full datasets, GPU training) are
/// scaled to CPU budgets by default, and knobs() can raise them.
struct RuntimeConfig {
  int mc_samples = 25;
  double epoch_scale = 1.0;
  int64_t train_cap = 4000;
  int64_t test_cap = 800;

  /// Scales an epoch count by epoch_scale, min 1.
  int epochs(int base) const;

  /// Singleton, parsed from the environment on first use.
  static const RuntimeConfig& get();
  /// Parses the environment now (what get() caches).
  static RuntimeConfig from_env();
  /// CORRECTNET_MC / _EPOCHS (percent) / _TRAIN / _TEST.
  static const Knobs& knobs();
};

/// `key = value` pairs. The file parser fails loudly on anything that would
/// silently reshape an experiment: a non-blank line without '=', a duplicate
/// key, and a config with no pairs at all each throw std::runtime_error.
/// Once bound to its rows (check, from_env, from_flags) a getter
/// returns the present value, else the row default (an empty scalar counts
/// as absent); a value that does not fully parse throws naming its key.
class KeyValueConfig {
 public:
  KeyValueConfig() = default;
  /// Throws std::runtime_error when the file cannot be opened or parsed.
  static KeyValueConfig from_file(const std::string& path);
  static KeyValueConfig from_string(const std::string& text);
  /// Every row's set, non-empty CORRECTNET_* variable, under the row's name;
  /// a malformed value throws naming the variable.
  static KeyValueConfig from_env(const Knobs& rows);
  /// `--flag value` pairs from argv[first, argc) under the rows' names; an
  /// unknown, retired, value-less or malformed flag throws naming the flag.
  static KeyValueConfig from_flags(const Knobs& rows, int argc,
                                   const char* const* argv, int first);

  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Sets or replaces a key: the override layer on top of a parsed file.
  void set(const std::string& key, const std::string& value);
  /// set() for every pair of `over` that `rows` name.
  void merge(const KeyValueConfig& over, const Knobs& rows);
  /// Checks every pair against `rows` and binds them (they must outlive this
  /// config): a retired name throws its message, undeclared keys throw
  /// together ("unknown key(s) ..."), and each value must parse as its type.
  void check(const Knobs& rows);

  // Reading before the rows are bound, or a name they do not declare,
  // throws std::logic_error.
  std::string str(const std::string& name) const;
  int64_t integer(const std::string& name) const;
  double number(const std::string& name) const;
  bool boolean(const std::string& name) const;
  std::vector<double> numbers(const std::string& name) const;
  std::vector<int64_t> integers(const std::string& name) const;

 private:
  const std::string* find(const std::string& key) const;
  /// The present value (an empty one is absent when `empty_unset`), else
  /// the bound row's default.
  std::string text(const std::string& name, bool empty_unset) const;

  std::vector<std::pair<std::string, std::string>> kv_;
  const Knobs* rows_ = nullptr;
};

}  // namespace cn::core
