// Guards on the benchmark itself: the phase-by-phase driver must be the
// program users run (composition equivalence with run_simulation), and
// each workload's outputs must not depend on its thread count.
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/phases.h"

namespace vstream::perfbench {
namespace {

constexpr std::size_t kSessions = 120;
constexpr std::uint64_t kSeed = 11;

std::filesystem::path scratch(const std::string& name) {
  return std::filesystem::current_path() / "perfbench_test_work" / name;
}

/// The five record streams of a run, read back from its spill files when
/// it spilled.
std::vector<std::string> record_streams(const engine::RunResult& run) {
  return csv_streams(run.spilled() ? run.spill.load() : run.dataset);
}

std::uint64_t cdn_requests(const engine::RunResult& run) {
  std::uint64_t requests = 0;
  for (const cdn::ServerStats& s : run.server_stats) {
    requests += s.requests_served;
  }
  return requests;
}

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, PhasedDriverMatchesRunSimulation) {
  const std::string name = workload_name(GetParam());
  const WorkloadConfig config =
      make_config(GetParam(), kSeed, kSessions, 0, scratch(name + "-phased"));
  std::filesystem::remove_all(config.work_dir);

  Tracer tracer(true, name);
  const PhasedRun phased = run_phased(config.scenario, config.options, tracer);

  engine::RunOptions reference_options = config.options;
  if (!reference_options.telemetry_spill_dir.empty()) {
    reference_options.telemetry_spill_dir =
        (scratch(name + "-reference") / "spill").string();
    std::filesystem::remove_all(reference_options.telemetry_spill_dir);
  }
  const engine::RunResult reference =
      engine::run_simulation(config.scenario, reference_options);

  ASSERT_EQ(phased.run.spilled(), reference.spilled());
  const std::vector<std::string> got = record_streams(phased.run);
  const std::vector<std::string> want = record_streams(reference);
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Multi-megabyte strings: report which stream, not its bytes.
    EXPECT_TRUE(got[i] == want[i]) << "record stream " << i << " differs";
  }
  EXPECT_GT(got[2].size(), 1000u) << "the run produced player chunks";
  EXPECT_EQ(cdn_requests(phased.run), cdn_requests(reference));
  EXPECT_EQ(phased.run.ground_truth.total_chunks,
            reference.ground_truth.total_chunks);
  EXPECT_EQ(phased.run.shard_count, reference.shard_count);
  EXPECT_EQ(phased.run.thread_count, reference.thread_count);

  // Every layer the driver times was traced, in setup-then-run order.
  std::vector<std::string> names;
  for (const Tracer::Span& span : tracer.spans()) names.push_back(span.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "setup", "workload.build", "engine.warmup",
                       "engine.admission", "engine.run", "engine.teardown"}));
  EXPECT_GT(phased.warmup_objects, 0u);
  EXPECT_GT(phased.stats.tasks, 0u);
}

TEST_P(WorkloadTest, DigestDoesNotDependOnThreadCount) {
  const std::string name = workload_name(GetParam());
  const WorkloadConfig own =
      make_config(GetParam(), kSeed, kSessions, 0, scratch(name + "-own"));
  const std::set<std::size_t> thread_counts = {own.options.threads, 4};

  Tracer tracer(false, name);
  const WorkloadResult serial = run_workload(
      make_config(GetParam(), kSeed, kSessions, 1, scratch(name + "-t1")),
      tracer);
  EXPECT_EQ(serial.check_error, "");
  EXPECT_EQ(serial.failed, 0u);
  EXPECT_GE(serial.attempted, kSessions);
  for (const std::size_t threads : thread_counts) {
    const WorkloadResult parallel = run_workload(
        make_config(GetParam(), kSeed, kSessions, threads,
                    scratch(name + "-t" + std::to_string(threads))),
        tracer);
    EXPECT_EQ(parallel.check_error, "") << threads << " threads";
    EXPECT_EQ(parallel.failed, 0u) << threads << " threads";
    EXPECT_EQ(parallel.attempted, serial.attempted) << threads << " threads";
    EXPECT_EQ(parallel.digest, serial.digest) << threads << " threads";
  }
}

TEST_P(WorkloadTest, TracedRunReportsEveryLayer) {
  const std::string name = workload_name(GetParam());
  Tracer tracer(true, name);
  const WorkloadResult result = run_workload(
      make_config(GetParam(), kSeed, kSessions, 0, scratch(name + "-trace")),
      tracer);
  EXPECT_EQ(result.check_error, "");

  std::set<std::string> layers;
  for (const auto& [layer, value] : result.layers) {
    EXPECT_TRUE(layers.insert(layer).second) << "duplicate " << layer;
    EXPECT_GE(value, 0.0) << layer;
  }
  for (const char* layer :
       {"workload.build_s", "engine.warmup_s", "engine.admission_s",
        "engine.run_s", "engine.us_per_chunk", "client.chunks",
        "cdn.requests", "runtime.tasks", "trace.wall_s"}) {
    EXPECT_TRUE(layers.contains(layer)) << layer;
  }
  // Span self times partition the traced wall time.
  double self_total = 0.0;
  for (const auto& [layer, value] : result.layers) {
    if (layer.ends_with("_s") && layer != "trace.wall_s") self_total += value;
  }
  EXPECT_NEAR(self_total, result.wall_s, 1e-3);

  // The same run untraced reports the same digest and no span times.
  Tracer untraced(false, name);
  const WorkloadResult plain = run_workload(
      make_config(GetParam(), kSeed, kSessions, 0, scratch(name + "-trace")),
      untraced);
  EXPECT_EQ(plain.digest, result.digest);
  for (const auto& [layer, value] : plain.layers) {
    EXPECT_FALSE(layer.ends_with("_s")) << layer;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTest, ::testing::ValuesIn(kWorkloads),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return std::string(workload_name(info.param));
    });

}  // namespace
}  // namespace vstream::perfbench
