// Internal: constructors of the built-in execution targets. The registry
// (target.cpp) references these directly instead of relying on static
// registrar objects — in a static library, registrars living in otherwise
// unreferenced translation units would be dead-stripped and the builtins
// would silently vanish from the registry.
#pragma once

#include <memory>
#include <vector>

#include "exec/target.h"

namespace cn::exec::detail {

/// Appends the simd kernel family: the widest-level "simd" target plus
/// one pinned registration per ISA level.
void append_simd_targets(std::vector<std::unique_ptr<Target>>& out);

std::unique_ptr<Target> make_int8_target();

}  // namespace cn::exec::detail
