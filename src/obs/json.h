// The one JSON string/number formatter of every emitter in the repo: the
// metrics snapshot, the JSONL snapshot stream, the Chrome trace, the
// campaign report and the bench BENCH_*.json files.
#pragma once

#include <cstdio>
#include <string>

namespace cn::obs {

/// `s` as the body of a JSON string literal: quote and backslash escaped,
/// every byte below 0x20 written as an escape (JSON forbids them raw).
inline std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// A JSON number at %.6g.
inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace cn::obs
