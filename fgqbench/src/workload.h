#ifndef FGQBENCH_WORKLOAD_H_
#define FGQBENCH_WORKLOAD_H_

// The fgq-bench workloads and the deterministic inputs each one generates
// from its seed. The program under test only ever sees what is built
// here: the databases, the request texts, and the mutation batches.

#include <cstdint>
#include <string>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/db/snapshot.h"
#include "fgq/net/protocol.h"

namespace fgqbench {

/// One workload's shape. Every workload runs the same protocol (set-up,
/// a closed-loop in-process phase, an open-loop wire phase) and differs
/// only in the database it serves.
struct WorkloadSpec {
  const char* name;
  /// Rows per relation of the served ServeWorkloadDatabase.
  size_t tuples;
};

/// The spec for `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Rows per relation of the database the in-process passes run on, on
/// every workload: large enough that the passes stream from memory, whose
/// speed varies less on a shared host than a cache-resident loop's.
inline constexpr size_t kAnalyticTuples = 200000;

/// Open-loop read rate over the wire (requests/s, both connections).
inline constexpr double kReadQps = 4000;

/// Share of --seconds spent on the wire phase; the rest runs the
/// in-process passes. A pass varies by tens of percent, so the passes
/// need most of the run for their median to repeat; the wire's per-slice
/// statistics repeat on a quarter of it.
inline constexpr double kWireShare = 0.25;

/// Length of the wire stream's untimed warm-up, at its start.
inline constexpr double kWarmupSeconds = 0.5;

/// The relation the write stream mutates. No query reads it, so writes
/// publish new epochs but leave every cached plan and every answer valid.
inline constexpr const char* kWriteRelation = "W";

/// Connection 0 carries every write (so the server applies the batches in
/// generation order and epoch k+2 is exactly "initial state + k+1
/// batches"); reads alternate between connections 0 and 1.
inline constexpr int kNumConns = 2;

/// Row cap of the kEnumerateLimit reads, as in fgq_loadgen.
inline constexpr uint32_t kReadLimit = 32;

/// One distinct read request text of ServeWorkloadMix.
struct QueryInfo {
  std::string text;
  std::string label;   ///< "figure1", "path2", ...
  bool count = false;  ///< kCount verb; otherwise kEnumerateLimit.
};

/// One scheduled wire operation.
struct StreamOp {
  int64_t at_ns = 0;  ///< Intended send time, from the stream start.
  int query = -1;     ///< Index into Inputs::queries (reads).
  int batch = -1;     ///< Index into Inputs::batches (writes).
  int conn = 0;
  bool is_write() const { return batch >= 0; }
};

struct Inputs {
  /// The served database: ServeWorkloadDatabase(spec.tuples) plus W.
  fgq::Database db;
  /// The in-process passes' database: ServeWorkloadDatabase(kAnalyticTuples).
  fgq::Database analytic_db;
  std::vector<QueryInfo> queries;
  /// Mutation batches on W in stream order; batch k publishes epoch k + 2.
  std::vector<fgq::MutationBatch> batches;
  std::vector<StreamOp> stream;
  /// Ops scheduled before this offset are sent and checked but not timed.
  int64_t warmup_ns = 0;
};

/// Builds the databases and a stream of `stream_seconds` (warm-up
/// included) at the spec's read rate, all drawn from `seed`.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  double stream_seconds);

/// The wire request for `op` (reads: kEnumerateLimit or kCount; writes:
/// kMutate carrying the batch's ops in order).
fgq::net::Request ToRequest(const Inputs& in, const StreamOp& op, uint64_t id);

}  // namespace fgqbench

#endif  // FGQBENCH_WORKLOAD_H_
