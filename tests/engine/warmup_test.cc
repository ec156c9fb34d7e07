// The warm-archive LRU bulk build must be indistinguishable from the
// reference write-through replay: identical per-level resident sets (and
// therefore identical peek() results for every probe the sharded engine
// could make).
#include "engine/warmup.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "cdn/fleet.h"
#include "client/abr.h"
#include "workload/catalog.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

struct WarmFixture {
  workload::Scenario scenario = workload::test_scenario();
  sim::Rng rng{scenario.seed};
  workload::VideoCatalog catalog{scenario.catalog, rng};
  cdn::Fleet fleet{scenario.fleet, catalog.size()};
};

void expect_identical_archives(const engine::WarmArchive& bulk,
                               const engine::WarmArchive& reference,
                               const WarmFixture& fx) {
  ASSERT_EQ(bulk.server_count(), reference.server_count());
  const auto ladder = client::default_bitrate_ladder();
  for (std::uint32_t sidx = 0; sidx < bulk.server_count(); ++sidx) {
    const cdn::TwoLevelCache& b = bulk.for_server(sidx);
    const cdn::TwoLevelCache& r = reference.for_server(sidx);
    EXPECT_EQ(b.ram().object_count(), r.ram().object_count()) << "s" << sidx;
    EXPECT_EQ(b.ram().used_bytes(), r.ram().used_bytes()) << "s" << sidx;
    EXPECT_EQ(b.disk().object_count(), r.disk().object_count()) << "s" << sidx;
    EXPECT_EQ(b.disk().used_bytes(), r.disk().used_bytes()) << "s" << sidx;
    // Probe every chunk the engine could ever request from this server.
    for (std::uint32_t video = 0; video < fx.catalog.size(); ++video) {
      const std::uint32_t chunks = fx.catalog.video(video).chunk_count;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        for (const std::uint32_t rung : ladder) {
          const cdn::ChunkKey key{video, c, rung};
          ASSERT_EQ(b.peek(key), r.peek(key))
              << "server " << sidx << " video " << video << " chunk " << c
              << " rung " << rung;
        }
      }
    }
  }
}

TEST(WarmupTest, BulkLruBuildMatchesWriteThroughReplay) {
  WarmFixture fx;
  ASSERT_EQ(fx.scenario.fleet.server.policy, cdn::PolicyKind::kLru);
  const engine::WarmArchive bulk = engine::build_warm_archive(
      fx.fleet, fx.catalog, /*disk_fill=*/0.92, /*universal_head=*/false);
  const engine::WarmArchive reference = engine::build_warm_archive(
      fx.fleet, fx.catalog, 0.92, false, engine::WarmBuildMode::kWriteThrough);
  expect_identical_archives(bulk, reference, fx);
}

TEST(WarmupTest, BulkBuildMatchesWithUniversalHeadAndOtherFills) {
  WarmFixture fx;
  for (const double fill : {0.5, 0.92}) {
    for (const bool head : {false, true}) {
      const engine::WarmArchive bulk =
          engine::build_warm_archive(fx.fleet, fx.catalog, fill, head);
      const engine::WarmArchive reference = engine::build_warm_archive(
          fx.fleet, fx.catalog, fill, head,
          engine::WarmBuildMode::kWriteThrough);
      SCOPED_TRACE(testing::Message() << "fill=" << fill << " head=" << head);
      expect_identical_archives(bulk, reference, fx);
    }
  }
}

TEST(WarmupTest, BulkBuildMatchesWhenRamIsSmallerThanTheLargestChunk) {
  // RAM below every top-rung chunk (VBR factor >= 0.75) but above most
  // lower-rung ones: the resident-suffix scan must skip each object larger
  // than the level (write-through never admits it, so it evicts nothing)
  // and stop at the first smaller one that no longer fits.
  WarmFixture fx;
  const auto ladder = client::default_bitrate_ladder();
  const double tau = fx.catalog.chunk_duration_s();
  cdn::FleetConfig config = fx.scenario.fleet;
  config.server.ram_bytes =
      static_cast<std::uint64_t>(0.7 * cdn::chunk_bytes(ladder.back(), tau));
  ASSERT_LT(config.server.ram_bytes,
            static_cast<std::uint64_t>(0.75 *
                                       cdn::chunk_bytes(ladder.back(), tau)));
  const cdn::Fleet fleet(config, fx.catalog.size());
  for (const bool head : {false, true}) {
    SCOPED_TRACE(testing::Message() << "head=" << head);
    const engine::WarmArchive bulk =
        engine::build_warm_archive(fleet, fx.catalog, 0.92, head);
    const engine::WarmArchive reference = engine::build_warm_archive(
        fleet, fx.catalog, 0.92, head, engine::WarmBuildMode::kWriteThrough);
    for (std::uint32_t sidx = 0; sidx < bulk.server_count(); ++sidx) {
      const cdn::CacheStore& ram = bulk.for_server(sidx).ram();
      EXPECT_GE(ram.object_count(), 1u) << "s" << sidx;
      EXPECT_LE(ram.used_bytes(), config.server.ram_bytes) << "s" << sidx;
    }
    expect_identical_archives(bulk, reference, fx);
  }
}

}  // namespace
}  // namespace vstream
