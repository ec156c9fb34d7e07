// perfbench_driver: run one benchmark workload once and print its
// measurements as one JSON line (plus a digest line).  perfbench/run.py
// starts it once per repetition, so every repetition is a fresh process
// and its peak RSS is its own.
//
//   perfbench_driver --workload campaign|spill_overload|attribution_serial
//                    --seed N --work DIR [--trace 0|1] [--spans FILE]
//
// Exit codes: 0 measured (the JSON says whether the output check passed),
// 2 bad usage or a VSTREAM_* variable in the environment, 3 the workload
// threw.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "perfbench/phases.h"

extern char** environ;

namespace {

using vstream::perfbench::Workload;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --work DIR "
               "[--trace 0|1] [--spans FILE]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* raw) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || raw[0] == '-') {
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  // VSTREAM_* variables silently re-shape the engine (shard and thread
  // counts, spill format and I/O path, overload knobs, failpoints); a
  // benchmark run must measure exactly the configuration it names.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::string_view(*env).starts_with("VSTREAM_")) {
      std::fprintf(stderr,
                   "perfbench_driver: refusing to run with %s set; unset "
                   "every VSTREAM_* variable\n",
                   *env);
      return 2;
    }
  }

  std::optional<Workload> workload;
  std::uint64_t seed = 0, trace = 0;
  bool have_seed = false;
  std::string work_dir, spans_file;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = vstream::perfbench::parse_workload(value);
      if (!workload) usage("unknown workload");
    } else if (arg == "--seed") {
      seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (arg == "--trace") {
      trace = parse_u64("--trace", value);
      if (trace > 1) usage("--trace must be 0 or 1");
    } else if (arg == "--work") {
      work_dir = value;
    } else if (arg == "--spans") {
      spans_file = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!workload || !have_seed || work_dir.empty()) {
    usage("--workload, --seed and --work are required");
  }

  try {
    const vstream::perfbench::WorkloadConfig config =
        vstream::perfbench::make_config(*workload, seed, 0, 0, work_dir);
    const std::string run_id = std::string(vstream::perfbench::workload_name(
                                   *workload)) +
                               "-" + std::to_string(seed);
    vstream::perfbench::Tracer tracer(trace == 1, run_id);
    const vstream::perfbench::WorkloadResult result =
        vstream::perfbench::run_workload(config, tracer);

    if (tracer.enabled() && !spans_file.empty()) {
      std::ofstream spans(spans_file, std::ios::app);
      tracer.write_jsonl(spans);
      if (!spans) throw std::runtime_error("cannot write " + spans_file);
    }

    std::printf("digest %s seed=%" PRIu64 " fnv1a64=%016" PRIx64 "\n",
                vstream::perfbench::workload_name(*workload), seed,
                result.digest);
    // check_error holds only the driver's own messages: no quotes to escape.
    std::printf("{\"setup_s\": %.9g, \"wall_s\": %.9g, "
                "\"peak_rss_mb\": %.9g, \"attempted\": %" PRIu64 ", "
                "\"failed\": %" PRIu64 ", \"check_error\": \"%s\", "
                "\"digest\": \"%016" PRIx64 "\", \"layers\": {",
                result.setup_s, result.wall_s, result.peak_rss_mb,
                result.attempted, result.failed, result.check_error.c_str(),
                result.digest);
    const char* separator = "";
    for (const auto& [name, value] : result.layers) {
      std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
      separator = ", ";
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 3;
  }
}
