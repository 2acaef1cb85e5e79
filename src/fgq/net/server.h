#ifndef FGQ_NET_SERVER_H_
#define FGQ_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fgq/db/snapshot.h"
#include "fgq/net/protocol.h"
#include "fgq/serve/query_service.h"
#include "fgq/util/status.h"

/// \file server.h
/// The epoll socket front end: shard-per-core request serving.
///
/// QueryService made fgq concurrent; NetServer makes it *networked*
/// without giving the concurrency back. The design goal is that the
/// paper's per-request budgets — O(||D||) preprocessing amortized into
/// the plan cache, O(||phi||) per answer — survive a real socket hop
/// under pipelined concurrent load:
///
/// * **Shard-per-core.** The server runs `num_shards` independent shards.
///   Each shard owns an epoll event loop thread, its accepted
///   connections, and a private QueryService (plan cache, admission
///   queue, worker threads) over the shared SnapshotStore. Shards share
///   no mutable state beyond the store, so throughput scales with shards
///   instead of serializing on one service mutex/queue.
/// * **Routing.** With `use_reuseport` (the default), every shard binds
///   its own listening socket with SO_REUSEPORT and the kernel routes
///   each new connection to one shard — zero cross-thread handoff.
///   Without it (or where unsupported), shard 0 accepts and hands
///   connections to shards round-robin over an eventfd-signalled queue:
///   the partition-aware-router fallback. Either way a connection lives
///   its whole life on one shard.
/// * **Pipelining.** Clients may send many requests without waiting.
///   Frames are decoded as bytes arrive; each request is submitted to the
///   shard's QueryService with SubmitPolicy::Reject() (an event loop
///   never blocks). A bounded plan-cache hit is answered inside Submit on
///   the shard thread and encoded with the frame batch; a queued request's
///   on_done hook wakes the shard's eventfd when its response future is
///   ready. Responses are written strictly in request order per
///   connection.
/// * **Protocol hygiene.** Framing violations (bad magic, oversized
///   length, malformed payload) get one error response and a close —
///   the stream cannot be trusted past them. Application errors (query
///   parse failure, deadline, queue-full rejection) are per-request
///   responses on a healthy connection.
///
/// The server reads its data through one root, a SnapshotStore, like
/// QueryService. Shards share the store; every request pins the current
/// epoch snapshot, and the kMutate verb applies its batch through
/// SnapshotStore::Apply (atomic, totally ordered across shards) and
/// replies with the new epoch while concurrent queries keep draining
/// their pinned epochs.

namespace fgq {
namespace net {

struct NetServerOptions {
  /// Listen address. Tests and the loopback harness use 127.0.0.1.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Event-loop shards, each with a private QueryService. 0 = one per
  /// hardware thread.
  size_t num_shards = 1;
  /// Per-shard QueryService configuration. The default differs from a
  /// standalone service: 1 worker per shard (shard-per-core means the
  /// parallelism lives in the shard count, not in one deep pool).
  ServiceOptions service = [] {
    ServiceOptions s;
    s.num_workers = 1;
    return s;
  }();
  /// Kernel-routed sharding via SO_REUSEPORT; false selects the
  /// round-robin acceptor router (shard 0 accepts, hands off fds).
  bool use_reuseport = true;
  /// Per-connection cap on decoded-but-unanswered requests; the excess
  /// request is rejected (ResourceExhausted) on an otherwise healthy
  /// connection.
  size_t max_pipeline = 1024;
  /// Frame payload cap for this server (<= protocol kMaxFramePayload).
  uint32_t max_frame_bytes = kMaxFramePayload;
  /// How long Stop() lets in-flight requests finish and flush before
  /// force-closing connections.
  std::chrono::milliseconds drain_timeout{2000};
};

/// Aggregate server statistics (summed over shards).
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests = 0;        ///< Frames decoded as requests.
  uint64_t responses = 0;       ///< Response frames written out.
  uint64_t protocol_errors = 0; ///< Framing/decode violations (fatal).
  uint64_t parse_errors = 0;    ///< Query-text parse failures (benign).
  uint64_t rejected = 0;        ///< Queue-full / pipeline-cap rejections.
};

class NetServer {
 public:
  /// Binds, starts the shard threads, returns a running server: requests
  /// pin epochs of `store`, kMutate applies to it. `store` is not owned
  /// and must outlive the server. Fails with Unavailable/Internal on
  /// socket errors, Unsupported on platforms without epoll.
  static Result<std::unique_ptr<NetServer>> Start(SnapshotStore* store,
                                                  NetServerOptions opts);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved when options asked for port 0).
  uint16_t port() const;
  size_t num_shards() const;

  /// Graceful shutdown: stop accepting, let in-flight requests finish
  /// and flush (bounded by drain_timeout), stop the shard services, join
  /// every thread. Idempotent; the destructor calls it.
  void Stop();

  NetServerStats stats() const;
  /// Per-shard QueryService metrics + cache occupancy + server totals.
  std::string StatsDump() const;

 private:
  struct Impl;
  explicit NetServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace fgq

#endif  // FGQ_NET_SERVER_H_
