// The benchmark's phase-by-phase driver for the vstream engine.
//
// run_phased() reproduces engine::run_simulation() one public call at a
// time (overload-knob resolution, world build, build_warm_archive,
// admit_sessions, run_sharded — in the same master-RNG order) so each
// layer can be timed from outside without touching src/.  The
// composition-equivalence test (phases_test.cc) pins that the phased
// driver and run_simulation produce byte-identical record streams, so the
// benchmark measures the program users run and not a look-alike.
//
// run_workload() runs one benchmark workload end to end on top of it:
// the simulation, the workload's post-processing (join + analysis +
// export, spill analysis + streaming export, or counterfactual
// attribution), then an untimed output check built only on equalities
// the repository's own test suite asserts.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "runtime/executor.h"
#include "workload/scenario.h"

namespace vstream::perfbench {

enum class Workload { kCampaign, kSpillOverload, kAttributionSerial };

inline constexpr Workload kWorkloads[] = {
    Workload::kCampaign, Workload::kSpillOverload,
    Workload::kAttributionSerial};

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(std::string_view name);

/// In-memory span recorder.  Disabled: span() records nothing.  Enabled:
/// every span keeps its name, start, end, parent and the run id until
/// the run writes them out.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index into spans(), -1 for a root
  };

  /// Closes its span at close() or when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void close();

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(std::string name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds covered by the span minus the part its direct children
  /// cover (children never overlap: every traced call is sequential).
  double self_seconds(std::size_t index) const;
  /// Sum of self_seconds over every span named `name`.
  double self_seconds(std::string_view name) const;

  /// One JSON object per span: name, start/end (ns since the first span),
  /// parent, run id.
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

/// A run_simulation() result assembled phase by phase, plus what the
/// phases expose that RunResult does not.
struct PhasedRun {
  engine::RunResult run;
  runtime::ParallelStats stats;
  /// Resident objects in the warm archive, RAM and disk levels.
  std::uint64_t warmup_objects = 0;
  /// When the world was built, warm and admitted: the first session
  /// could run from here on.
  Tracer::Clock::time_point setup_done;
  /// When run_sharded (shard execution and merge) returned.
  Tracer::Clock::time_point run_done;
};

/// engine::run_simulation(scenario, options), one public call per layer.
/// Honours the same options (shards, threads, spill dir and format,
/// faults, warm-cache settings); checkpointing is not part of any
/// workload and is rejected.
PhasedRun run_phased(const workload::Scenario& scenario,
                     const engine::RunOptions& options, Tracer& tracer);

/// Everything that defines one workload run.
struct WorkloadConfig {
  Workload workload = Workload::kCampaign;
  workload::Scenario scenario;
  engine::RunOptions options;
  /// Worst sessions attributed (attribution_serial only).
  std::size_t worst_n = 0;
  /// Scratch directory for spill files and exported CSVs (recreated).
  std::filesystem::path work_dir;
};

/// Sessions one benchmark run of `workload` simulates.
std::size_t default_sessions(Workload workload);

/// The paper scenario at `sessions` (0: default_sessions), with the
/// workload's fault profile, 64 logical shards, the workload's thread
/// count (`threads` 0: its default, at most 4) and telemetry mode.
WorkloadConfig make_config(Workload workload, std::uint64_t seed,
                           std::size_t sessions, std::size_t threads,
                           std::filesystem::path work_dir);

struct WorkloadResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Operations: sessions simulated, each replay counting as one session.
  std::uint64_t attempted = 0;
  /// Operations the output check rejected.
  std::uint64_t failed = 0;
  /// Empty when the output check passed, else what it rejected.
  std::string check_error;
  /// FNV-1a 64 over the workload's outputs (see run_workload).
  std::uint64_t digest = 0;
  /// Per-layer metrics by name: span self times (traced runs only) and
  /// counts (every run).
  std::vector<std::pair<std::string, double>> layers;
};

/// Run one workload: phases, post-processing, then the output check.
/// Timed regions end when the last result is written; the check and
/// the digest come after.
WorkloadResult run_workload(const WorkloadConfig& config, Tracer& tracer);

/// The five record streams of `data` as their CSV bytes, in
/// player_sessions, cdn_sessions, player_chunks, cdn_chunks,
/// tcp_snapshots order.
std::vector<std::string> csv_streams(const telemetry::Dataset& data);

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a 64 of `bytes`, continuing from `hash`.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash = kFnvOffset);

}  // namespace vstream::perfbench
