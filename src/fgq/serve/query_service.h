#ifndef FGQ_SERVE_QUERY_SERVICE_H_
#define FGQ_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/query/cq.h"
#include "fgq/serve/plan_cache.h"
#include "fgq/trace/trace.h"
#include "fgq/util/cancel.h"
#include "fgq/util/metrics.h"
#include "fgq/util/status.h"

/// \file query_service.h
/// A concurrent query service on top of fgq::Engine.
///
/// Engine evaluates one query; QueryService turns it into something you
/// can put behind a network front end:
///
/// * **Plan caching.** Prepared plans (the Theorem 4.6 preprocessing for
///   free-connex queries, materialized answers otherwise) live in an LRU
///   keyed by canonical query text + per-relation epochs, so repeated
///   queries skip the O(||D||) preparation and a mutation of relation R
///   invalidates the plans over R by construction (see plan_cache.h).
///   One entry serves both verbs: the count verb's aggregate under each
///   semiring is computed once per entry and memoized on it.
/// * **Deadlines and cancellation.** Every request carries a CancelToken
///   that the evaluation loops poll; an expired deadline surfaces as
///   Status::DeadlineExceeded with partial-work accounting instead of a
///   runaway worker. CancelAll trips every queued and in-flight request.
/// * **Bounded hits answer inline.** A request whose cached entry answers
///   it in bounded work — a count whose memo slot for the semiring is
///   filled (O(1)), rows from materialized answers (a prefix copy of at
///   most `limit` rows, or the shared relation), rows from a program with
///   0 < limit <= kInlineRowLimit (O(limit) at constant delay, Theorem
///   4.6), or a Boolean program — is answered by Submit on the calling
///   thread: no classification (the entry carries it), no queue, no
///   worker handoff. Its future is ready when Submit returns.
/// * **Admission control.** Everything else waits in a bounded two-lane
///   queue. The heavy lane holds the oracle-backed classes (cyclic,
///   negated, order comparisons) whose worst case is exponential; at most
///   `max_concurrent_heavy` of them run at once, so a flood of cyclic
///   queries cannot occupy every worker and starve the O(||D||)
///   free-connex traffic. What happens on a full queue is the caller's
///   SubmitPolicy: kBlock applies backpressure (optionally bounded by
///   `max_wait`), kReject resolves the future immediately with
///   ResourceExhausted — the choice an event loop needs, since it can
///   never block.
/// * **Metrics.** Request counts per class, cache hits/misses, inline
///   hits, queue-wait (queued requests only) and execution-time
///   histograms, all readable as a text dump (the `\stats` verb of
///   examples/fgq_serve.cpp).
///
/// The service reads its data through one root, a SnapshotStore given at
/// construction. Each request pins the store's current Snapshot once,
/// executes entirely against that immutable epoch, and reports the epoch
/// in its response — mutations applied concurrently via
/// SnapshotStore::Apply are safe under live traffic, and every answer is
/// exactly the pre- or post-mutation state, never a torn mix. Plans are
/// cached per (canonical query, per-relation epochs), so a mutation
/// invalidates only the plans whose atoms it touched. A plain
/// Database is served by wrapping it in a one-epoch store.

namespace fgq {

/// What the client wants back.
enum class ServeVerb {
  kRows,   ///< The full answer relation.
  kCount,  ///< |phi(D)| only.
};

/// The largest row limit a cached program answers on the submitting
/// thread: at the measured ~40 ns per answer, ~40 us of cursor work — on
/// the order of the queue and wake-up round trip it replaces.
inline constexpr uint64_t kInlineRowLimit = 1024;

struct ServiceOptions {
  /// Worker threads executing requests. >= 1.
  size_t num_workers = 4;
  /// Queued (not yet running) requests across both lanes before Submit
  /// blocks or rejects (per its SubmitPolicy). >= 1.
  size_t max_pending = 64;
  /// Cap on simultaneously *running* heavy-lane requests; 0 means
  /// num_workers / 2 (at least 1). Must stay below num_workers to
  /// guarantee a light lane.
  size_t max_concurrent_heavy = 0;
  /// PlanCache capacity (entries).
  size_t cache_capacity = 128;
  /// Engine options shared by the workers (thread pool etc.).
  ExecOptions exec;
};

struct ServiceResponse;

struct ServiceRequest {
  ConjunctiveQuery query;
  ServeVerb verb = ServeVerb::kRows;
  /// kRows only: stop after this many answers (0 = all). On the cached
  /// free-connex path the cursor is abandoned after `limit` steps, so k
  /// answers cost O(k) — the constant-delay budget survives truncation.
  uint64_t limit = 0;
  /// Per-request execution deadline; zero means no deadline.
  std::chrono::nanoseconds timeout{0};
  /// kCount only: the commutative semiring the count verb aggregates
  /// under (semiring.h). kCounting (the default) is the classic |phi(D)|.
  /// Not part of the plan-cache key: the entry memoizes one aggregate
  /// per semiring.
  SemiringId semiring = SemiringId::kCounting;
  /// Optional trace sink for this request (not owned; must outlive the
  /// response future). The worker opens a `serve.request` span, plumbs
  /// the sink through the evaluation (prepare / sweeps / index build /
  /// enumerate spans), and feeds the completed span durations into the
  /// `serve.phase.<name>_us` metrics histograms. Each request gets its
  /// own TraceContext, so concurrent traces never interleave. Null (the
  /// default) keeps the request on the untraced fast path.
  TraceContext* trace = nullptr;
  /// Completion hook, invoked exactly once after the response future
  /// becomes ready — on the worker thread for queued requests, on the
  /// submitting thread (inside Submit) for bounded cache hits and
  /// rejected requests, on the stopping thread for orphans. This is how a
  /// non-blocking front end (the epoll server) learns a response is ready
  /// without polling futures: the hook signals its event loop, and can
  /// skip the signal when it runs on the loop's own thread. Must not
  /// block, must not take a lock the submitter holds across Submit, and
  /// must not call back into the service.
  std::function<void(const ServiceResponse&)> on_done;
};

/// How Submit behaves when the bounded queue is full.
struct SubmitPolicy {
  enum class OnFull : uint8_t {
    kBlock,   ///< Wait for space (backpressure), optionally bounded.
    kReject,  ///< Resolve immediately with ResourceExhausted.
  };
  OnFull on_full = OnFull::kBlock;
  /// kBlock only: the longest Submit may wait for queue space before
  /// rejecting anyway. Zero = wait indefinitely.
  std::chrono::nanoseconds max_wait{0};

  static SubmitPolicy Block() { return SubmitPolicy{}; }
  static SubmitPolicy Reject() {
    return SubmitPolicy{OnFull::kReject, std::chrono::nanoseconds{0}};
  }
};

struct ServiceResponse {
  /// OK, or DeadlineExceeded/Cancelled/ResourceExhausted/evaluation error.
  Status status;
  QueryClass classification = QueryClass::kCyclic;
  /// The algorithm used, or "cached" when served from the plan cache.
  std::string algorithm;
  /// Set for kRows on success (shared immutable — may alias the cache).
  std::shared_ptr<const Relation> answers;
  /// Set for kCount on success under the counting semiring (the default):
  /// semiring_value.count again.
  BigInt count;
  /// Set for kCount on success: the ⊕-aggregate, tagged with its id. The
  /// wire layer serializes semiring_value.Encode() as the count body.
  SemiringValue semiring_value;
  bool cache_hit = false;
  /// Epoch of the snapshot the request executed against (0 for a request
  /// that never ran: rejected, or cancelled while queued). The epoch is
  /// pinned once per request, so answers are linearizable at it.
  uint64_t epoch = 0;
  std::chrono::nanoseconds queue_wait{0};
  std::chrono::nanoseconds exec_time{0};
};

/// The service. Construction starts the workers; destruction cancels
/// queued requests, waits for in-flight ones, and joins.
class QueryService {
 public:
  /// Every request pins `store`'s current snapshot for its lifetime.
  /// `store` is not owned and must outlive the service.
  explicit QueryService(SnapshotStore* store,
                        ServiceOptions opts = ServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The single submission entry point. Always returns a future; every
  /// outcome — success, evaluation error, deadline, queue-full rejection,
  /// service stopping — arrives as a ServiceResponse through it (and
  /// through req.on_done, when set). A bounded cache hit (see the file
  /// comment) is answered before Submit returns; every other request is
  /// queued. The policy decides only what happens while the queue is
  /// full: kBlock waits for space (bounded by policy.max_wait when
  /// nonzero), kReject resolves immediately with ResourceExhausted.
  std::future<ServiceResponse> Submit(ServiceRequest req,
                                      SubmitPolicy policy = SubmitPolicy());

  /// Trips the CancelToken of every queued and in-flight request. Queued
  /// requests resolve with Cancelled without running; in-flight ones
  /// return at their next cancellation check. Bounded hits answered
  /// inline are not tracked: they finish within their bound.
  void CancelAll();

  /// Stops accepting work, cancels the queue, waits for in-flight
  /// requests, joins the workers. Idempotent; the destructor calls it.
  void Stop();

  MetricsRegistry& metrics() { return metrics_; }
  PlanCache& cache() { return cache_; }
  const ServiceOptions& options() const { return opts_; }

  /// Renders metrics plus cache occupancy (the `\stats` payload).
  std::string StatsDump();

 private:
  struct Pending {
    ServiceRequest req;
    CancelToken cancel;
    std::promise<ServiceResponse> promise;
    QueryClass classification = QueryClass::kCyclic;
    std::chrono::steady_clock::time_point enqueued;
    uint64_t seq = 0;
    /// The plan key the inline probe built and the epoch of the snapshot
    /// it pinned; Process reuses the key when it pins that same epoch.
    PlanKey key;
    std::optional<uint64_t> key_epoch;
  };

  /// True for the oracle-backed classes that get the throttled lane.
  static bool IsHeavy(QueryClass c);

  /// Looks `p` up without counting. A bounded hit is counted, answered
  /// and resolved here (true); otherwise nothing is counted and `p`
  /// takes its classification from the entry, if any, or from
  /// Engine::Classify (false).
  bool TryAnswerInline(Pending& p);

  void WorkerLoop();
  /// Executes one admitted request (snapshot pin, cache lookup,
  /// evaluation, metrics).
  ServiceResponse Process(Pending& p);
  /// Answers `p` from `plan` — a hit, or the plan Prepare just built —
  /// into `response`, then records the execution metrics. `plan` may be
  /// null only when `response` already carries an error. The one answer
  /// path of both the inline hit and the worker.
  void AnswerFromEntry(Pending& p, const CachedPlan* plan,
                       std::chrono::steady_clock::time_point started,
                       ServiceResponse* response);
  /// Evaluation on cache miss against `db` (the pinned snapshot's view);
  /// fills `out` and returns the plan to cache (nullptr when the result
  /// must not be cached, e.g. after a deadline).
  std::shared_ptr<const CachedPlan> Prepare(Pending& p, const Database& db,
                                            ServiceResponse* out);

  /// Fulfills the promise, then fires the on_done hook (in that order, so
  /// the hook always observes a ready future).
  static void Resolve(Pending& p, ServiceResponse resp);

  SnapshotStore* store_;
  ServiceOptions opts_;
  Engine engine_;
  PlanCache cache_;
  MetricsRegistry metrics_;

  /// Instruments resolved once at construction: recording on a handle is
  /// lock-free, looking one up by name takes the registry mutex.
  static constexpr size_t kNumClasses =
      static_cast<size_t>(QueryClass::kCyclic) + 1;
  Counter& requests_;
  Counter* requests_by_class_[kNumClasses];  // serve.requests.<class>
  Counter& rejected_;
  Counter& pins_;
  Counter& hits_;
  Counter& inline_hits_;
  Counter& misses_;
  Counter& compiled_;
  Counter& deadline_exceeded_;
  Counter& cancelled_;
  Histogram& queue_wait_us_;
  Histogram& exec_us_;

  /// Serializes Stop(): held for the entire shutdown (including the
  /// joins, which must happen outside mu_). Always acquired before mu_.
  std::mutex stop_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // Workers: work available / stop.
  std::condition_variable space_cv_;  // Submitters: queue has room.
  std::deque<std::unique_ptr<Pending>> light_;
  std::deque<std::unique_ptr<Pending>> heavy_;
  /// Tokens of currently running requests (for CancelAll).
  std::vector<CancelToken> running_;
  size_t heavy_running_ = 0;
  uint64_t next_seq_ = 0;
  /// Written under mu_; atomic so the inline path can read it unlocked.
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace fgq

#endif  // FGQ_SERVE_QUERY_SERVICE_H_
