// Seeded byte-level mutations for parser robustness harnesses. A mutant of a
// valid input is a truncation, a few bit flips, or an inflation (a slice of
// the input repeated in place); the same rng state yields the same mutant,
// so a failure names a reproducible (seed, index) pair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

namespace cn::testutil {

enum class Mutation { kTruncate, kBitFlip, kInflate };

inline std::string mutate(const std::string& in, Mutation kind,
                          std::mt19937_64& rng) {
  auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  std::string out = in;
  if (in.empty()) return out;
  switch (kind) {
    case Mutation::kTruncate:
      out.resize(below(in.size()));
      break;
    case Mutation::kBitFlip:
      for (size_t k = 0, flips = 1 + below(4); k < flips; ++k)
        out[below(out.size())] ^= static_cast<char>(1u << below(8));
      break;
    case Mutation::kInflate: {
      const size_t at = below(in.size());
      const size_t len = 1 + below(std::min<size_t>(in.size() - at, 32));
      const std::string slice = in.substr(at, len);
      std::string run;
      for (size_t k = 0, copies = 1 + below(64); k < copies; ++k) run += slice;
      out.insert(at, run);
      break;
    }
  }
  return out;
}

// Printable form of a mutant for failure messages (control bytes escaped).
inline std::string printable(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out.push_back(c);
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 15]);
    }
  }
  return out;
}

}  // namespace cn::testutil
