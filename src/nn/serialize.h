// Binary (de)serialization of model parameters.
//
// Format: magic "CNWT", version, param count, then per param:
// name length + name, rank, dims, raw float data. Parameters are matched by
// order and shape, with names checked when present (an empty stored name
// matches any parameter).
#pragma once

#include <string>

#include "nn/sequential.h"

namespace cn::nn {

/// Writes all parameters of `model` to `path`. Throws std::runtime_error on IO failure.
void save_weights(Sequential& model, const std::string& path);

/// Loads parameters into `model` (shapes must match). Throws
/// std::runtime_error on a mismatch, IO failure, malformed or trailing bytes;
/// the model is only written once the whole file has parsed, so a throw
/// leaves it untouched.
void load_weights(Sequential& model, const std::string& path);

}  // namespace cn::nn
