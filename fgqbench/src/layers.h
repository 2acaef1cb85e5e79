#ifndef FGQBENCH_LAYERS_H_
#define FGQBENCH_LAYERS_H_

// The traced run's extra steps. Each call into a layer is wrapped in a
// span recorded here, in the benchmark, into a caller-owned
// fgq::TraceContext; the per-layer metrics are order statistics of those
// spans plus the stats structs the layers already publish.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytic.h"
#include "common.h"
#include "fgq/db/snapshot.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/trace.h"
#include "wire.h"
#include "workload.h"

namespace fgqbench {

/// Snapshot pins per db.pin span: one pin is tens of nanoseconds, far
/// below a span's own cost, so a span times a batch.
inline constexpr int kPinsPerSpan = 1000;

/// Closed-loop kPing round trips on the fixture's ping connection.
void PingLayer(Fixture& f, fgq::TraceContext* trace, Ledger* ledger);

/// The wire stream's ops [0, end) replayed in process, on the same
/// schedule, through QueryService::Submit over a fresh SnapshotStore
/// built from the same inputs (writes go to SnapshotStore::Apply on the
/// generator thread, as the server applies them on its shard thread).
/// Texts are parsed before the replay starts, so a request's latency
/// covers what the server's service does with it and nothing more.
struct Replay {
  explicit Replay(size_t n) : resp(n), got(n, 0), lat_ns(n, -1) {}
  std::vector<fgq::ServiceResponse> resp;
  std::vector<uint8_t> got;
  std::vector<int64_t> lat_ns;  ///< Completion - intended submit time.
  /// The cache warm-up requests (one per mix query, all misses).
  std::vector<fgq::ServiceResponse> warmup;
  fgq::SnapshotStoreStats store_stats;
  std::unique_ptr<fgq::SnapshotStore> store;  ///< Kept for the pin probe.
};
Replay RunReplay(const Inputs& in, size_t end, fgq::TraceContext* trace);

/// One round of the single-layer probes: parse and classify of each mix
/// text of `in`; on `snap`, vm compile and the counting and min-plus VM
/// folds of Figure 1, the counting DP on the 2-path, and a hash-index
/// build on the largest relation; snapshot pins on `store`. Results are
/// checked against `truth`.
void ProbeLayers(const Inputs& in, const fgq::Engine& engine,
                 const AnalyticQueries& q, const AnalyticTruth& truth,
                 const std::shared_ptr<const fgq::Snapshot>& snap,
                 const fgq::SnapshotStore& store, fgq::TraceContext* trace,
                 Ledger* ledger);

/// Completed span durations in microseconds, by span name.
std::map<std::string, std::vector<double>> SpanDurationsUs(
    const fgq::TraceContext& trace);

}  // namespace fgqbench

#endif  // FGQBENCH_LAYERS_H_
