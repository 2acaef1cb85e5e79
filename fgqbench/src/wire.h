#ifndef FGQBENCH_WIRE_H_
#define FGQBENCH_WIRE_H_

// Set-up of the served system and the open-loop wire generator.

#include <memory>
#include <vector>

#include "common.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/net/client.h"
#include "fgq/net/server.h"
#include "fgq/trace/trace.h"
#include "workload.h"

namespace fgqbench {

/// Engine threads of the in-process phase: one, the serial algorithms.
/// With a pool every parallel step hands work to other threads, and on a
/// shared VM the cost of waking them swings by up to 2x with the host's
/// state, which moved the pass timings by 15-25% between runs.
inline constexpr int kEngineThreads = 1;

/// The system under test, as one set-up builds it. Members are declared
/// so that destruction closes the clients, then stops the server, then
/// drops the store the server reads.
struct Fixture {
  std::unique_ptr<fgq::SnapshotStore> store;
  std::unique_ptr<fgq::net::NetServer> server;
  /// kNumConns data connections, then the ping connection.
  std::vector<std::unique_ptr<fgq::net::Client>> conns;
  std::unique_ptr<fgq::Engine> engine;
};

/// Store construction (plus a maintained index on W),
/// server start on loopback with one shard and one worker, client
/// connects, and one request per mix query so the plan cache is warm.
fgq::Result<std::unique_ptr<Fixture>> SetUp(const Inputs& in);

/// What the generator saw, indexed by stream op.
struct Observed {
  explicit Observed(size_t n) : resp(n), got(n, 0), lat_ns(n, -1), lag_us(n, -1) {}
  std::vector<fgq::net::Response> resp;
  std::vector<uint8_t> got;       ///< 1 when a response arrived.
  std::vector<int64_t> lat_ns;    ///< Receive - intended send time.
  std::vector<double> lag_us;     ///< Actual - intended send time; -1: unsent.
  uint64_t transport_failures = 0;
};

/// One contiguous slice of the stream, as the generator ran it.
struct WireSlice {
  double cpu_seconds = 0;   ///< Process CPU over the slice.
  uint64_t completed = 0;   ///< Responses received.
  double cpu_us_per_op() const {
    return completed == 0 ? 0 : cpu_seconds * 1e6 / static_cast<double>(completed);
  }
};

/// Sends stream ops [begin, end) on schedule (one thread, both data
/// connections, ppoll between due sends) and records every response into
/// `obs`. Op i is due at start + (at_ns(i) - at_ns(begin)). With `trace`
/// set, each Send and each response decode is a span.
WireSlice RunStream(Fixture& f, const Inputs& in, size_t begin, size_t end,
                    Observed* obs, fgq::TraceContext* trace);

}  // namespace fgqbench

#endif  // FGQBENCH_WIRE_H_
