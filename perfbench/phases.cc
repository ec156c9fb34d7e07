#include "perfbench/phases.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/aggregate.h"
#include "analysis/qoe.h"
#include "core/streaming.h"
#include "engine/admission.h"
#include "engine/attribution.h"
#include "engine/replay.h"
#include "engine/sharded_runner.h"
#include "engine/warmup.h"
#include "faults/fault_schedule.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"
#include "workload/population.h"
#include "workload/session_generator.h"

namespace vstream::perfbench {

namespace {

using Clock = Tracer::Clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The five CSV files export_dataset/export_stream write, in the order
/// csv_streams() returns them.
constexpr const char* kCsvFiles[] = {
    "player_sessions.csv", "cdn_sessions.csv", "player_chunks.csv",
    "cdn_chunks.csv", "tcp_snapshots.csv"};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// ---- output checks: bit-for-bit equalities the test suite asserts ----

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_summary(const analysis::SummaryStats& a,
                  const analysis::SummaryStats& b) {
  return a.n == b.n && same_bits(a.mean, b.mean) &&
         same_bits(a.stddev, b.stddev) && same_bits(a.min, b.min) &&
         same_bits(a.max, b.max) && same_bits(a.median, b.median) &&
         same_bits(a.p25, b.p25) && same_bits(a.p75, b.p75) &&
         same_bits(a.p95, b.p95);
}

bool same_qoe(const analysis::QoeAggregate& a,
              const analysis::QoeAggregate& b) {
  return a.sessions == b.sessions &&
         same_bits(a.share_with_rebuffering, b.share_with_rebuffering) &&
         same_summary(a.startup_ms, b.startup_ms) &&
         same_summary(a.rebuffer_rate_pct, b.rebuffer_rate_pct) &&
         same_summary(a.avg_bitrate_kbps, b.avg_bitrate_kbps) &&
         same_summary(a.dropped_frame_pct, b.dropped_frame_pct);
}

bool same_prefixes(const std::vector<analysis::PrefixRollup>& a,
                   const std::vector<analysis::PrefixRollup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].prefix != b[i].prefix ||
        a[i].session_count != b[i].session_count ||
        !same_bits(a[i].srtt_min_ms, b[i].srtt_min_ms) ||
        !same_bits(a[i].mean_srtt_ms, b[i].mean_srtt_ms) ||
        !same_bits(a[i].distance_km, b[i].distance_km) ||
        a[i].country != b[i].country || a[i].org != b[i].org ||
        a[i].access != b[i].access) {
      return false;
    }
  }
  return true;
}

bool same_perf(const analysis::PerfScoreSummary& a,
               const analysis::PerfScoreSummary& b) {
  return a.chunks == b.chunks && a.scored_chunks == b.scored_chunks &&
         a.bad_chunks == b.bad_chunks && same_bits(a.mean_score, b.mean_score) &&
         same_bits(a.min_score, b.min_score);
}

/// Counts only: the FP means agree between the streaming folds only to
/// rounding (analysis/accumulators.h).
bool same_recovery_counts(const analysis::RecoveryImpact& a,
                          const analysis::RecoveryImpact& b) {
  return a.sessions == b.sessions &&
         a.completed_sessions == b.completed_sessions &&
         a.failover_sessions == b.failover_sessions &&
         a.affected_sessions == b.affected_sessions &&
         a.retries == b.retries && a.timeouts == b.timeouts &&
         a.stale_chunks == b.stale_chunks && a.shed_chunks == b.shed_chunks &&
         a.hedged_chunks == b.hedged_chunks && a.hedge_wins == b.hedge_wins &&
         a.swr_chunks == b.swr_chunks &&
         a.budget_denied_chunks == b.budget_denied_chunks;
}

// ---- per-layer counts shared by every workload ----

void add_counts(const PhasedRun& phased, WorkloadResult& result) {
  const engine::RunResult& run = phased.run;
  cdn::ServerStats cdn;
  for (const cdn::ServerStats& s : run.server_stats) cdn += s;
  const runtime::ParallelStats& stats = phased.stats;
  const std::size_t busiest =
      stats.tasks_per_worker.empty()
          ? 0
          : *std::max_element(stats.tasks_per_worker.begin(),
                              stats.tasks_per_worker.end());
  const auto d = [](auto v) { return static_cast<double>(v); };
  result.layers.insert(
      result.layers.end(),
      {{"engine.warmup_objects", d(phased.warmup_objects)},
       {"runtime.tasks", d(stats.tasks)},
       {"runtime.steals", d(stats.steals)},
       {"runtime.workers_used", d(stats.workers_used())},
       {"runtime.max_worker_task_share",
        stats.tasks == 0 ? 0.0 : d(busiest) / d(stats.tasks)},
       {"client.chunks", d(run.ground_truth.total_chunks)},
       {"cdn.requests", d(cdn.requests_served)},
       {"cdn.ram_hits", d(cdn.ram_hits)},
       {"cdn.disk_hits", d(cdn.disk_hits)},
       {"cdn.misses", d(cdn.misses)},
       {"cdn.backend_requests", d(cdn.backend_requests())},
       {"cdn.shed", d(cdn.shed_requests)},
       {"cdn.hedged", d(cdn.hedged_fetches)},
       {"cdn.swr", d(cdn.swr_serves)}});
}

template <typename Body>
void traced(Tracer& tracer, const char* name, Body&& body) {
  const Tracer::Scope scope = tracer.span(name);
  body();
}

}  // namespace

// ---------------------------------------------------------------- Tracer

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end = Clock::now();
  tracer_->open_ = span.parent;
  tracer_ = nullptr;
}

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  spans_.push_back({std::move(name), Clock::now(), {}, open_});
  open_ = static_cast<int>(spans_.size() - 1);
  return Scope(this, open_);
}

double Tracer::self_seconds(std::size_t index) const {
  double self = seconds_between(spans_[index].start, spans_[index].end);
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(index)) {
      self -= seconds_between(child.start, child.end);
    }
  }
  return self;
}

double Tracer::self_seconds(std::string_view name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self_seconds(i);
  }
  return total;
}

void Tracer::write_jsonl(std::ostream& out) const {
  if (spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << ns(span.start)
        << ",\"end_ns\":" << ns(span.end) << ",\"parent\":" << span.parent
        << ",\"run\":\"" << run_id_ << "\"}\n";
  }
}

// ------------------------------------------------------------- workloads

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCampaign:
      return "campaign";
    case Workload::kSpillOverload:
      return "spill_overload";
    case Workload::kAttributionSerial:
      return "attribution_serial";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::size_t default_sessions(Workload workload) {
  switch (workload) {
    case Workload::kCampaign:
    case Workload::kSpillOverload:
      return 3000;
    case Workload::kAttributionSerial:
      return 1200;
  }
  return 0;
}

WorkloadConfig make_config(Workload workload, std::uint64_t seed,
                           std::size_t sessions, std::size_t threads,
                           std::filesystem::path work_dir) {
  if (sessions == 0) sessions = default_sessions(workload);
  WorkloadConfig config;
  config.workload = workload;
  config.scenario = workload::paper_scenario();
  config.scenario.seed = seed;
  config.scenario.session_count = sessions;
  config.work_dir = std::move(work_dir);

  const std::size_t host_threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t parallel = std::min<std::size_t>(4, host_threads);
  engine::RunOptions& options = config.options;
  options.shards = runtime::kDefaultLogicalShards;
  switch (workload) {
    case Workload::kCampaign:
      options.threads = threads != 0 ? threads : parallel;
      break;
    case Workload::kSpillOverload:
      options.threads = threads != 0 ? threads : parallel;
      options.faults = *faults::FaultSchedule::named("overload");
      options.telemetry_spill_dir = (config.work_dir / "spill").string();
      options.spill_format = telemetry::kSpillVersionDefault;
      break;
    case Workload::kAttributionSerial:
      options.threads = threads != 0 ? threads : 1;
      options.faults = *faults::FaultSchedule::named("eventful");
      config.worst_n = std::max<std::size_t>(1, sessions / 10);
      break;
  }
  return config;
}

PhasedRun run_phased(const workload::Scenario& scenario,
                     const engine::RunOptions& options, Tracer& tracer) {
  if (!options.checkpoint_dir.empty() || options.resume) {
    throw std::invalid_argument("run_phased: checkpointing is not supported");
  }
  PhasedRun phased;
  engine::RunResult& result = phased.run;
  result.scenario = scenario;
  result.shard_count = engine::resolve_shard_count(options.shards);
  result.thread_count = runtime::resolve_thread_count(options.threads);
  result.scenario.fleet.server.overload =
      engine::resolve_overload_env(result.scenario.fleet.server.overload);
  const workload::Scenario& world = result.scenario;

  Tracer::Scope setup = tracer.span("setup");
  // Same master-RNG consumption order as run_simulation: catalog,
  // population, then (after the warm archive, which draws nothing)
  // admission.
  sim::Rng rng(world.seed);
  std::shared_ptr<workload::VideoCatalog> catalog;
  std::unique_ptr<workload::Population> population;
  std::unique_ptr<workload::SessionGenerator> generator;
  std::unique_ptr<cdn::Fleet> prototype;
  {
    const Tracer::Scope scope = tracer.span("workload.build");
    catalog = std::make_shared<workload::VideoCatalog>(world.catalog, rng);
    population = std::make_unique<workload::Population>(world.population, rng);
    generator = std::make_unique<workload::SessionGenerator>(
        world.sessions, *catalog, *population);
    prototype = std::make_unique<cdn::Fleet>(world.fleet, catalog->size());
  }
  std::unique_ptr<engine::WarmArchive> warm;
  {
    const Tracer::Scope scope = tracer.span("engine.warmup");
    warm = std::make_unique<engine::WarmArchive>(
        options.warm_caches
            ? engine::build_warm_archive(*prototype, *catalog,
                                         options.disk_fill,
                                         options.universal_head)
            : engine::WarmArchive(world.fleet));
  }
  std::vector<engine::AdmittedSession> admitted;
  {
    const Tracer::Scope scope = tracer.span("engine.admission");
    admitted = engine::admit_sessions(world, *generator, rng);
  }
  setup.close();
  phased.setup_done = Clock::now();

  for (std::uint32_t i = 0; i < warm->server_count(); ++i) {
    const cdn::TwoLevelCache& cache = warm->for_server(i);
    phased.warmup_objects += cache.ram().object_count() +
                             cache.disk().object_count();
  }

  Tracer::Scope run_scope = tracer.span("engine.run");
  std::filesystem::path spill_path;
  if (!options.telemetry_spill_dir.empty()) {
    spill_path = options.telemetry_spill_dir;
    std::filesystem::create_directories(spill_path);
  }
  engine::ExecOptions exec;
  exec.threads = result.thread_count;
  exec.spill_format = options.spill_format;
  engine::ShardResult merged = engine::run_sharded(
      world, *catalog, *warm,
      options.faults.empty() ? nullptr : &options.faults,
      options.bad_prefixes.empty() ? nullptr : &options.bad_prefixes,
      admitted, result.shard_count,
      spill_path.empty() ? nullptr : &spill_path, nullptr, &exec,
      &phased.stats);
  run_scope.close();
  phased.run_done = Clock::now();
  result.completed = merged.completed;
  result.checkpoints_degraded = merged.checkpoints_degraded;
  for (std::filesystem::path& file : merged.spill_files) {
    result.spill.add_file(std::move(file));
  }
  result.catalog = std::move(catalog);
  result.dataset = std::move(merged.dataset);
  result.ground_truth = std::move(merged.ground_truth);
  result.ground_truth.injected_faults = options.faults.events();
  result.server_stats = std::move(merged.server_stats);

  // run_simulation frees its world on return; free it under a span so the
  // cost is attributed instead of hiding in the caller's self time.
  const Tracer::Scope teardown = tracer.span("engine.teardown");
  warm.reset();
  prototype.reset();
  generator.reset();
  population.reset();
  std::vector<engine::AdmittedSession>().swap(admitted);
  return phased;
}

WorkloadResult run_workload(const WorkloadConfig& config, Tracer& tracer) {
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  const std::filesystem::path csv_dir = config.work_dir / "csv";

  WorkloadResult result;
  const std::size_t sessions = config.scenario.session_count;
  const Clock::time_point start = Clock::now();
  Tracer::Scope root = tracer.span("workload");

  PhasedRun phased = run_phased(config.scenario, config.options, tracer);
  const engine::RunResult& run = phased.run;
  const double tau = run.catalog->chunk_duration_s();
  const std::size_t threads = run.thread_count;
  // vstream-sim exports on its own pool, serially with one thread.
  const auto export_on_pool = [&](auto&& export_to) {
    runtime::Executor pool(threads);
    export_to(pool.workers() > 1 ? &pool : nullptr);
  };
  const auto finish_timing = [&] {
    result.wall_s = seconds_between(start, Clock::now());
    result.peak_rss_mb = peak_rss_mb();
    root.close();
  };

  std::uint64_t tcp_snapshots = run.dataset.tcp_snapshots.size();
  std::uint64_t spill_bytes = 0;
  std::uint64_t replays = 0;
  std::size_t attributed = 0;
  std::size_t replay_matches = 0;
  constexpr std::uint64_t kReplaysPerSession =
      1 + cdn::kIdealizedSubsystemCount;

  switch (config.workload) {
    case Workload::kCampaign: {
      telemetry::ProxyFilterResult proxies;
      telemetry::JoinedDataset joined;
      traced(tracer, "telemetry.join", [&] {
        proxies = telemetry::detect_proxies(run.dataset);
        joined = telemetry::JoinedDataset::build(run.dataset, &proxies);
      });
      analysis::QoeAggregate qoe;
      std::vector<analysis::PrefixRollup> prefixes;
      traced(tracer, "analysis.aggregate", [&] {
        qoe = analysis::aggregate_qoe(joined);
        prefixes = analysis::rollup_prefixes(joined);
      });
      traced(tracer, "telemetry.export", [&] {
        export_on_pool([&](runtime::Executor* pool) {
          telemetry::export_dataset(run.dataset, csv_dir, pool);
        });
      });
      finish_timing();

      const core::StreamingAnalysis streamed =
          core::analyze_dataset(run.dataset, tau);
      if (!same_qoe(streamed.qoe, qoe)) {
        result.check_error = "analyze_dataset QoE differs from aggregate_qoe";
      } else if (!same_prefixes(streamed.prefixes, prefixes)) {
        result.check_error =
            "analyze_dataset prefixes differ from rollup_prefixes";
      }
      break;
    }
    case Workload::kSpillOverload: {
      core::StreamingAnalysis streamed;
      traced(tracer, "core.analyze_spill", [&] {
        streamed = core::analyze_spill(run.spill, tau, {}, threads);
      });
      traced(tracer, "telemetry.export", [&] {
        export_on_pool([&](runtime::Executor* pool) {
          const auto stream = run.spill.open();
          telemetry::export_stream(*stream, csv_dir, pool);
        });
      });
      finish_timing();

      for (const std::filesystem::path& file : run.spill.files()) {
        spill_bytes += std::filesystem::file_size(file);
      }
      telemetry::SpillReadStats read_stats;
      const telemetry::Dataset loaded = run.spill.load(&read_stats);
      tcp_snapshots = loaded.tcp_snapshots.size();
      const core::StreamingAnalysis reference =
          core::analyze_dataset(loaded, tau);
      if (streamed.spill.corrupted() || read_stats.corrupted()) {
        result.check_error = "spill files read back damaged";
      } else if (streamed.proxies.proxy_sessions !=
                     reference.proxies.proxy_sessions ||
                 streamed.sessions_joined != reference.sessions_joined ||
                 streamed.dropped_as_proxy != reference.dropped_as_proxy ||
                 streamed.dropped_incomplete != reference.dropped_incomplete) {
        result.check_error = "analyze_spill join accounting differs";
      } else if (!same_qoe(streamed.qoe, reference.qoe)) {
        result.check_error = "analyze_spill QoE differs from analyze_dataset";
      } else if (!same_prefixes(streamed.prefixes, reference.prefixes)) {
        result.check_error = "analyze_spill prefixes differ";
      } else if (!same_perf(streamed.perf, reference.perf)) {
        result.check_error = "analyze_spill perf score differs";
      } else if (!same_recovery_counts(streamed.recovery,
                                       reference.recovery)) {
        result.check_error = "analyze_spill recovery counts differ";
      }
      break;
    }
    case Workload::kAttributionSerial: {
      std::unique_ptr<engine::ReplayContext> context;
      traced(tracer, "engine.replay_context", [&] {
        context = std::make_unique<engine::ReplayContext>(config.scenario,
                                                          config.options);
      });
      analysis::AttributionReport report;
      traced(tracer, "engine.attribute", [&] {
        engine::AttributionOptions options;
        options.worst_n = config.worst_n;
        options.threads = threads;
        report = engine::attribute_worst(*context, run.dataset, options);
      });
      traced(tracer, "engine.teardown", [&] { context.reset(); });
      finish_timing();

      attributed = report.sessions.size();
      replays = attributed * kReplaysPerSession;
      for (const analysis::SessionAttribution& s : report.sessions) {
        if (s.baseline_matches) ++replay_matches;
      }
      // A diverged factual replay discredits its session's whole row.
      result.failed = (attributed - replay_matches) * kReplaysPerSession;
      if (attributed != config.worst_n) {
        result.check_error = "attribution covered " +
                             std::to_string(attributed) +
                             " sessions, expected " +
                             std::to_string(config.worst_n);
      } else if (result.failed != 0) {
        result.check_error =
            std::to_string(attributed - replay_matches) +
            " factual replays diverged from the in-memory baseline";
      }
      std::ostringstream json;
      analysis::write_attribution_json(json, report);
      result.digest = kFnvOffset;
      for (const std::string& csv : csv_streams(run.dataset)) {
        result.digest = fnv1a64(csv, result.digest);
      }
      result.digest = fnv1a64(json.str(), result.digest);
      break;
    }
  }

  std::uint64_t export_bytes = 0;
  if (std::filesystem::exists(csv_dir)) {
    result.digest = kFnvOffset;
    for (const char* name : kCsvFiles) {
      const std::string csv = read_file(csv_dir / name);
      export_bytes += csv.size();
      result.digest = fnv1a64(csv, result.digest);
    }
  }

  result.setup_s = seconds_between(start, phased.setup_done);
  result.attempted = sessions + replays;
  if (!result.check_error.empty() && result.failed == 0) {
    // A whole-run equality failed: no operation can be vouched for.
    result.failed = result.attempted;
  }

  add_counts(phased, result);
  const double chunks = static_cast<double>(run.ground_truth.total_chunks);
  const double run_s = seconds_between(phased.setup_done, phased.run_done);
  const auto d = [](auto v) { return static_cast<double>(v); };
  result.layers.insert(
      result.layers.end(),
      {{"engine.us_per_chunk", chunks == 0.0 ? 0.0 : run_s * 1e6 / chunks},
       {"engine.replays", d(replays)},
       {"engine.replay_match_share",
        attributed == 0 ? 0.0 : d(replay_matches) / d(attributed)},
       {"net.tcp_snapshots", d(tcp_snapshots)},
       {"telemetry.export_bytes", d(export_bytes)},
       {"telemetry.spill_bytes_per_session", d(spill_bytes) / d(sessions)}});
  if (tracer.enabled()) {
    for (const char* layer :
         {"workload.build", "engine.warmup", "engine.admission", "engine.run",
          "engine.teardown", "engine.replay_context", "engine.attribute",
          "telemetry.join", "telemetry.export", "analysis.aggregate",
          "core.analyze_spill"}) {
      result.layers.push_back(
          {std::string(layer) + "_s", tracer.self_seconds(layer)});
    }
    const Tracer::Span& workload_span = tracer.spans().front();
    result.layers.push_back(
        {"trace.wall_s",
         seconds_between(workload_span.start, workload_span.end)});
    result.layers.push_back(
        {"trace.driver_self_s",
         tracer.self_seconds("workload") + tracer.self_seconds("setup")});
  }
  return result;
}

std::vector<std::string> csv_streams(const telemetry::Dataset& data) {
  std::vector<std::string> streams;
  std::ostringstream out;
  const auto take = [&] {
    streams.push_back(std::move(out).str());
    out.str({});
  };
  telemetry::write_player_sessions_csv(out, data.player_sessions);
  take();
  telemetry::write_cdn_sessions_csv(out, data.cdn_sessions);
  take();
  telemetry::write_player_chunks_csv(out, data.player_chunks);
  take();
  telemetry::write_cdn_chunks_csv(out, data.cdn_chunks);
  take();
  telemetry::write_tcp_snapshots_csv(out, data.tcp_snapshots);
  take();
  return streams;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace vstream::perfbench
