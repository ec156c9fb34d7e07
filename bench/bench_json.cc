#include "bench_json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace vstream::bench {

namespace {

/// JSON string escaping for the identifiers we emit (no control chars
/// expected, but stay correct if one sneaks in).
std::string escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void emit_json(const std::filesystem::path& path, const std::string& suite,
               const std::vector<JsonMetric>& metrics) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("emit_json: cannot open " + path.string());
  }
  out << "{\n  \"suite\": \"" << escaped(suite) << "\",\n  \"nproc\": "
      << std::thread::hardware_concurrency() << ",\n  \"compiler\": \""
      << escaped(VSTREAM_COMPILER) << "\",\n  \"build_type\": \""
      << escaped(VSTREAM_BUILD_TYPE) << "\",\n  \"metrics\": {";
  bool first = true;
  for (const JsonMetric& m : metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.6g", value);
    out << (first ? "\n" : ",\n") << "    \"" << escaped(m.name)
        << "\": {\"value\": " << number << ", \"unit\": \""
        << escaped(m.unit) << "\"}";
    first = false;
  }
  out << "\n  }\n}\n";
  if (!out.flush()) {
    throw std::runtime_error("emit_json: write failed for " + path.string());
  }
}

}  // namespace vstream::bench
