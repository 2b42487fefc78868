#include "exec/target.h"

#include <atomic>
#include <stdexcept>

namespace cn::exec {
namespace {

const Target& resolve(const std::string& name, const char* what) {
  const Target* t = find_target(name);
  if (!t) {
    std::string names;
    for (const Target* r : registered_targets())
      names += (names.empty() ? "" : ", ") + r->name();
    throw std::runtime_error(std::string(what) + ": unknown execution target '" +
                             name + "' (registered: " + names + ")");
  }
  if (!t->available())
    throw std::runtime_error(std::string(what) + ": execution target '" + name +
                             "' is not available on this build/host");
  return *t;
}

// CORRECTNET_TARGET, resolved once. Validated by every get_target /
// default_target / set_default_target call, so a typo'd CI matrix value
// fails the first crossbar construction loudly instead of silently running
// the default target.
const Target& startup_default() {
  static const Target& t = []() -> const Target& {
    const std::string env =
        core::KeyValueConfig::from_env(knobs()).str("CORRECTNET_TARGET");
    return env.empty() ? *registered_targets().front()
                       : resolve(env, "CORRECTNET_TARGET");
  }();
  return t;
}

std::atomic<const Target*> override_default{nullptr};  // set_default_target

}  // namespace

Target::Target(std::string name, std::string description, int pinned_level)
    : name_(std::move(name)), description_(std::move(description)),
      pinned_(pinned_level) {}

bool Target::available() const { return pinned_ <= simd::max_level(); }

int Target::level() const { return pinned_ < 0 ? simd::max_level() : pinned_; }

const core::Knobs& knobs() {
  static const core::Knobs rows = {
      {"", core::KnobType::kString, "", "", "CORRECTNET_TARGET"}};
  return rows;
}

const std::vector<const Target*>& registered_targets() {
  static const Target kTable[] = {
      {"simd",
       "register-blocked float kernels at the widest supported ISA level "
       "(default)",
       -1},
      {"simd-generic",
       "register-blocked float kernels pinned to the generic ISA level", 0},
      {"simd-avx2", "register-blocked float kernels pinned to the avx2 ISA level",
       1},
      {"simd-avx512f",
       "register-blocked float kernels pinned to the avx512f ISA level", 2},
  };
  static const std::vector<const Target*> rows = {&kTable[0], &kTable[1],
                                                  &kTable[2], &kTable[3]};
  return rows;
}

const Target* find_target(const std::string& name) {
  for (const Target* t : registered_targets())
    if (t->name() == name) return t;
  return nullptr;
}

const Target& get_target(const std::string& name) {
  startup_default();
  return resolve(name, "get_target");
}

const Target& default_target() {
  const Target& startup = startup_default();
  const Target* o = override_default.load();
  return o ? *o : startup;
}

void set_default_target(const std::string& name) {
  startup_default();
  override_default = &resolve(name, "set_default_target");
}

void reset_default_target() {
  startup_default();
  override_default = nullptr;
}

}  // namespace cn::exec
