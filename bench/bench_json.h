// Minimal machine-readable bench output: a flat named-metric JSON file
// (BENCH_<suite>.json) that the tier-1 perf smoke validates and CI-style
// tooling can diff across commits.  Each file also names the host and build
// it was measured on (core count, compiler, CMake build type), so two
// committed reports are only compared like for like.  No external JSON
// dependency — the emitter writes the tiny fixed shape itself.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace vstream::bench {

struct JsonMetric {
  std::string name;   ///< snake_case identifier, unique within the suite
  double value = 0.0; ///< non-finite values are clamped to 0
  std::string unit;   ///< e.g. "ops/s", "sessions/s"
};

/// Write `{"suite": <suite>, "nproc": n, "compiler": c, "build_type": b,
/// "metrics": {name: {"value": v, "unit": u}}}` to `path`.  Throws
/// std::runtime_error if the file cannot be written.
void emit_json(const std::filesystem::path& path, const std::string& suite,
               const std::vector<JsonMetric>& metrics);

}  // namespace vstream::bench
