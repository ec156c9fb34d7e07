#include "core/streaming.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>

#include "runtime/executor.h"
#include "telemetry/streaming_join.h"

namespace vstream::core {

namespace {

/// Everything pass 2 folds: the four §4 accumulators plus the joiner's
/// session accounting.  One bundle, so the serial fold, the per-file
/// folds, their file-order merge and the cross-file pass all add, merge
/// and finish the same set.
struct Fold {
  explicit Fold(double chunk_duration_s) : perf(chunk_duration_s) {}

  void add(const telemetry::JoinedSession& session) {
    qoe.add(session);
    prefixes.add(session);
    perf.add(session);
    recovery.add(session);
  }

  /// Join every group `stream` yields, except those whose session id
  /// `skip` accepts, add the joined sessions and tally the joiner's
  /// accounting.
  template <typename Skip>
  void join_stream(telemetry::SessionGroupStream& stream,
                   const telemetry::ProxyFilterResult& proxies, Skip skip) {
    telemetry::StreamingJoiner joiner(&proxies);
    while (auto group = stream.next()) {
      if (skip(group->session_id)) continue;
      if (const auto joined = joiner.join(*group)) add(*joined);
    }
    sessions_joined += joiner.sessions_joined();
    dropped_as_proxy += joiner.dropped_as_proxy();
    dropped_incomplete += joiner.dropped_incomplete();
  }

  void merge(Fold&& other) {
    sessions_joined += other.sessions_joined;
    dropped_as_proxy += other.dropped_as_proxy;
    dropped_incomplete += other.dropped_incomplete;
    qoe.merge(std::move(other.qoe));
    prefixes.merge(std::move(other.prefixes));
    perf.merge(std::move(other.perf));
    recovery.merge(std::move(other.recovery));
  }

  void finish(StreamingAnalysis& out) && {
    out.sessions_joined = sessions_joined;
    out.dropped_as_proxy = dropped_as_proxy;
    out.dropped_incomplete = dropped_incomplete;
    out.qoe = std::move(qoe).finalize();
    out.prefixes = std::move(prefixes).finalize();
    out.perf = std::move(perf).finalize();
    out.recovery = std::move(recovery).finalize();
  }

  std::size_t sessions_joined = 0;
  std::size_t dropped_as_proxy = 0;
  std::size_t dropped_incomplete = 0;
  analysis::QoeAccumulator qoe;
  analysis::PrefixRollupAccumulator prefixes;
  analysis::PerfScoreAccumulator perf;
  analysis::RecoveryImpactAccumulator recovery;
};

/// The shared two-pass fold; `open` must return a fresh canonical-order
/// stream each call.
template <typename OpenStream>
StreamingAnalysis analyze_impl(const OpenStream& open,
                               double chunk_duration_s,
                               const telemetry::ProxyFilterConfig& proxy_config) {
  StreamingAnalysis out;

  // Pass 1: proxy detection sees only the two session-level streams, so a
  // session-only dataset — O(sessions), no chunk records — reproduces
  // detect_proxies on the full dataset exactly.
  {
    telemetry::Dataset session_level;
    auto stream = open();
    while (auto group = stream->next()) {
      for (auto& r : group->player_sessions) {
        session_level.player_sessions.push_back(std::move(r));
      }
      for (auto& r : group->cdn_sessions) {
        session_level.cdn_sessions.push_back(std::move(r));
      }
    }
    out.proxies = telemetry::detect_proxies(session_level, proxy_config);
  }

  // Pass 2: join + accumulate, one session resident at a time.
  Fold fold(chunk_duration_s);
  fold.join_stream(*open(), out.proxies,
                   [](std::uint64_t) { return false; });
  std::move(fold).finish(out);
  return out;
}

/// Stable-sort a session-level record stream by session id — turns the
/// concatenation of per-file (ascending-id) record runs into exactly the
/// sequence the merged SpillSet stream would have produced: ascending id,
/// ties broken by file order, per-file emission order preserved.
template <typename Record>
void sort_by_session(std::vector<Record>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.session_id < b.session_id;
                   });
}

/// The parallel spill fold: per-file tasks on `executor`, merged in file
/// order.  Bit-identical to the serial analyze_impl fold (see the header
/// doc for why).
StreamingAnalysis analyze_spill_parallel(
    const telemetry::SpillSet& spill, double chunk_duration_s,
    const telemetry::ProxyFilterConfig& proxy_config,
    runtime::Executor& executor) {
  const std::vector<std::filesystem::path>& files = spill.files();
  StreamingAnalysis out;

  // Pass 1, per file: the session-level records (all proxy detection
  // needs) plus every block's session id (for cross-file session
  // detection), each file read by one task into its own slot.
  struct FileScan {
    telemetry::Dataset session_level;
    std::vector<std::uint64_t> ids;  ///< ascending; one per session group
    telemetry::SpillReadStats stats;
  };
  std::vector<FileScan> scans(files.size());
  executor.parallel_for(files.size(), [&](std::size_t f) {
    FileScan& scan = scans[f];
    telemetry::SpillSet one;
    one.add_file(files[f]);
    auto stream = one.open(&scan.stats);
    while (auto group = stream->next()) {
      scan.ids.push_back(group->session_id);
      for (auto& r : group->player_sessions) {
        scan.session_level.player_sessions.push_back(std::move(r));
      }
      for (auto& r : group->cdn_sessions) {
        scan.session_level.cdn_sessions.push_back(std::move(r));
      }
    }
  });

  // Salvage accounting comes from pass 1 only (the serial path likewise
  // accounts only its first scan); the per-file counters sum to exactly
  // the merged stream's totals.
  for (const FileScan& scan : scans) out.spill += scan.stats;

  // Rebuild the merged-stream record order from the per-file runs, then
  // detect proxies on it — identical input to the serial path's pass 1.
  {
    telemetry::Dataset session_level;
    std::size_t players = 0, cdns = 0;
    for (const FileScan& scan : scans) {
      players += scan.session_level.player_sessions.size();
      cdns += scan.session_level.cdn_sessions.size();
    }
    session_level.player_sessions.reserve(players);
    session_level.cdn_sessions.reserve(cdns);
    for (FileScan& scan : scans) {
      for (auto& r : scan.session_level.player_sessions) {
        session_level.player_sessions.push_back(std::move(r));
      }
      for (auto& r : scan.session_level.cdn_sessions) {
        session_level.cdn_sessions.push_back(std::move(r));
      }
      scan.session_level = telemetry::Dataset{};
    }
    sort_by_session(session_level.player_sessions);
    sort_by_session(session_level.cdn_sessions);
    out.proxies = telemetry::detect_proxies(session_level, proxy_config);
  }

  // Sessions whose blocks live in more than one file must be joined from
  // the *merged* group (the per-file fold would see torn halves and
  // mis-count them as incomplete).  The engine never produces them — a
  // session completes wholly on one shard — but analyze_spill accepts
  // arbitrary file sets.
  std::unordered_set<std::uint64_t> cross_file;
  {
    std::vector<std::uint64_t> all_ids;
    std::size_t total = 0;
    for (const FileScan& scan : scans) total += scan.ids.size();
    all_ids.reserve(total);
    for (const FileScan& scan : scans) {
      all_ids.insert(all_ids.end(), scan.ids.begin(), scan.ids.end());
    }
    std::sort(all_ids.begin(), all_ids.end());
    for (std::size_t i = 1; i < all_ids.size(); ++i) {
      if (all_ids[i] == all_ids[i - 1]) cross_file.insert(all_ids[i]);
    }
  }

  // Pass 2, per file: join + accumulate into per-file folds.
  std::vector<Fold> folds(files.size(), Fold(chunk_duration_s));
  executor.parallel_for(files.size(), [&](std::size_t f) {
    telemetry::SpillSet one;
    one.add_file(files[f]);
    // Salvage was accounted in pass 1.
    folds[f].join_stream(*one.open(), out.proxies, [&](std::uint64_t id) {
      return cross_file.count(id) != 0;
    });
  });

  // Merge in file order; finalize() sorts by session id, so the merge
  // grouping is invisible in the result.
  Fold fold(chunk_duration_s);
  for (Fold& file_fold : folds) fold.merge(std::move(file_fold));

  if (!cross_file.empty()) {
    // Final serial pass: the merged stream concatenates a cross-file
    // session's blocks in file order before the join sees them.
    fold.join_stream(*spill.open(), out.proxies, [&](std::uint64_t id) {
      return cross_file.count(id) == 0;
    });
  }

  std::move(fold).finish(out);
  return out;
}

}  // namespace

StreamingAnalysis analyze_spill(const telemetry::SpillSet& spill,
                                double chunk_duration_s,
                                const telemetry::ProxyFilterConfig& proxy_config,
                                std::size_t threads) {
  const std::size_t workers =
      threads == 1 ? 1 : runtime::resolve_thread_count(threads);
  if (workers > 1 && spill.files().size() > 1) {
    runtime::Executor executor(workers);
    return analyze_spill_parallel(spill, chunk_duration_s, proxy_config,
                                  executor);
  }

  // Both passes re-open (and re-scan) the files; account salvage once, on
  // the first pass, or every counter would double.
  telemetry::SpillReadStats stats;
  bool first_pass = true;
  StreamingAnalysis out = analyze_impl(
      [&] {
        auto stream = spill.open(first_pass ? &stats : nullptr);
        first_pass = false;
        return stream;
      },
      chunk_duration_s, proxy_config);
  out.spill = stats;
  return out;
}

StreamingAnalysis analyze_dataset(const telemetry::Dataset& data,
                                  double chunk_duration_s,
                                  const telemetry::ProxyFilterConfig& proxy_config) {
  return analyze_impl(
      [&] { return std::make_unique<telemetry::DatasetGroupStream>(data); },
      chunk_duration_s, proxy_config);
}

}  // namespace vstream::core
