#include "engine/engine.h"

#include <filesystem>
#include <stdexcept>

#include "engine/admission.h"
#include "engine/checkpoint.h"
#include "engine/sharded_runner.h"
#include "engine/warmup.h"
#include "runtime/executor.h"
#include "sim/env_util.h"
#include "workload/population.h"
#include "workload/session_generator.h"

namespace vstream::engine {

cdn::OverloadConfig resolve_overload_env(cdn::OverloadConfig base) {
  base.breaker_latency_threshold_ms = sim::positive_env_double(
      "VSTREAM_BREAKER_THRESHOLD", base.breaker_latency_threshold_ms);
  // Percent in the environment (10 = 10% of requests may be retries),
  // ratio internally.
  base.retry_budget_ratio =
      sim::positive_env_double("VSTREAM_RETRY_BUDGET",
                               base.retry_budget_ratio * 100.0) /
      100.0;
  // Percent of nominal capacity (125 = shed past 1.25x).
  base.shed_watermark =
      sim::positive_env_double("VSTREAM_SHED_WATERMARK",
                               base.shed_watermark * 100.0) /
      100.0;
  return base;
}

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested != 0) return requested;
  return sim::positive_env("VSTREAM_SHARDS", runtime::kDefaultLogicalShards);
}

RunResult run_simulation(const workload::Scenario& scenario,
                         RunOptions options) {
  RunResult result;
  result.scenario = scenario;
  result.shard_count = resolve_shard_count(options.shards);
  result.thread_count = runtime::resolve_thread_count(options.threads);
  // Overload-protection knobs apply before the world is built, so every
  // server (and the warm archive prototype) sees the same config.
  result.scenario.fleet.server.overload =
      resolve_overload_env(result.scenario.fleet.server.overload);

  // World construction mirrors core::Pipeline exactly (same master-RNG
  // consumption order), so the engine and the facade agree on the world.
  // Built from result.scenario so the resolved overload knobs reach every
  // server replica.
  const workload::Scenario& world = result.scenario;
  sim::Rng rng(world.seed);
  auto catalog = std::make_shared<workload::VideoCatalog>(world.catalog, rng);
  workload::Population population(world.population, rng);
  workload::SessionGenerator generator(world.sessions, *catalog, population);
  const cdn::Fleet prototype(world.fleet, catalog->size());

  const WarmArchive warm =
      options.warm_caches
          ? build_warm_archive(prototype, *catalog, options.disk_fill,
                               options.universal_head)
          : WarmArchive(world.fleet);

  const std::vector<AdmittedSession> admitted =
      admit_sessions(world, generator, rng);

  // Streaming telemetry: an explicit option wins, else the strict
  // environment knob (unset: in-memory; set but empty: refuse to run).
  std::string spill_dir =
      !options.telemetry_spill_dir.empty()
          ? options.telemetry_spill_dir
          : sim::nonempty_env("VSTREAM_TELEMETRY_SPILL");

  // Crash safety: same precedence.  Checkpointing implies spill mode
  // (record durability lives in the spill files); with no spill dir
  // configured the checkpoint directory carries both.
  const std::string ckpt_dir = !options.checkpoint_dir.empty()
                                   ? options.checkpoint_dir
                                   : sim::nonempty_env("VSTREAM_CHECKPOINT");
  if (options.resume && ckpt_dir.empty()) {
    throw std::runtime_error(
        "run_simulation: resume requested without a checkpoint directory "
        "(RunOptions.checkpoint_dir / VSTREAM_CHECKPOINT)");
  }
  if (!ckpt_dir.empty() && spill_dir.empty()) spill_dir = ckpt_dir;

  std::filesystem::path spill_path;
  if (!spill_dir.empty()) {
    spill_path = spill_dir;
    std::filesystem::create_directories(spill_path);
  }

  CheckpointConfig checkpoint;
  if (!ckpt_dir.empty()) {
    checkpoint.dir = ckpt_dir;
    std::filesystem::create_directories(checkpoint.dir);
    checkpoint.resume = options.resume;
    checkpoint.interval =
        options.checkpoint_interval != 0
            ? options.checkpoint_interval
            : sim::positive_env("VSTREAM_CHECKPOINT_INTERVAL", 1000);
    checkpoint.fingerprint =
        run_fingerprint(admitted, result.shard_count,
                        options.faults.empty() ? nullptr : &options.faults);
    checkpoint.stop_after_batches = options.stop_after_checkpoints;
  }

  ExecOptions exec;
  exec.threads = result.thread_count;
  exec.spill_format = options.spill_format;
  ShardResult merged = run_sharded(
      world, *catalog, warm,
      options.faults.empty() ? nullptr : &options.faults,
      options.bad_prefixes.empty() ? nullptr : &options.bad_prefixes,
      admitted, result.shard_count,
      spill_dir.empty() ? nullptr : &spill_path,
      ckpt_dir.empty() ? nullptr : &checkpoint, &exec);
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
  return result;
}

AnalyzedRun run_and_analyze(const workload::Scenario& scenario,
                            RunOptions options) {
  AnalyzedRun analyzed;
  analyzed.run = run_simulation(scenario, std::move(options));
  if (analyzed.run.spilled()) {
    // The batch join holds pointers into a materialized dataset, which a
    // spilled run deliberately does not have.  Spilled runs analyze
    // incrementally instead (core::analyze_spill).
    throw std::runtime_error(
        "run_and_analyze: telemetry was spilled to disk "
        "(VSTREAM_TELEMETRY_SPILL / RunOptions.telemetry_spill_dir); "
        "use core::analyze_spill on RunResult.spill instead");
  }
  analyzed.proxies = telemetry::detect_proxies(analyzed.run.dataset);
  analyzed.joined = telemetry::JoinedDataset::build(analyzed.run.dataset,
                                                    &analyzed.proxies);
  return analyzed;
}

}  // namespace vstream::engine
