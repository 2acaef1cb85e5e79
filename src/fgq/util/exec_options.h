#ifndef FGQ_UTIL_EXEC_OPTIONS_H_
#define FGQ_UTIL_EXEC_OPTIONS_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "fgq/util/cancel.h"
#include "fgq/util/thread_pool.h"

/// \file exec_options.h
/// Execution knobs for the parallel evaluation core.
///
/// Every evaluation entry point (EvaluateYannakakis, FullReduce, the
/// enumerator factories, the Engine facade) accepts an ExecOptions. The
/// default — num_threads = 1 — reproduces the historical serial behavior
/// bit-for-bit: no pool is created and every algorithm takes its original
/// code path. With num_threads > 1 the linear-time phases (atom
/// preparation, semijoin sweeps, sort/dedup, hash-index builds) run
/// morsel-parallel; the per-thread work stays O(||D|| / threads + morsels),
/// preserving the paper's O(||D||) preprocessing bound.

namespace fgq {

class TraceContext;  // src/fgq/trace/trace.h — util must not depend on it

struct ExecOptions {
  /// Total execution lanes. 1 = serial (the default); 0 or negative =
  /// one lane per hardware thread.
  int num_threads = 1;
  /// Rows per parallel work unit. Small enough to load-balance skewed
  /// relations, big enough to amortize scheduling (~a few cache pages).
  size_t morsel_size = 4096;

  size_t ResolvedThreads() const {
    if (num_threads > 0) return static_cast<size_t>(num_threads);
    return ThreadPool::HardwareThreads();
  }

  static ExecOptions Serial() { return ExecOptions{}; }
  static ExecOptions Parallel(int threads = 0) {
    ExecOptions o;
    o.num_threads = threads;
    return o;
  }

  friend bool operator==(const ExecOptions& a, const ExecOptions& b) {
    return a.num_threads == b.num_threads && a.morsel_size == b.morsel_size;
  }
};

/// A shared handle on the execution resources of one (or many) evaluation
/// calls: the thread pool — null in serial mode — plus the morsel size.
/// Copies share the pool; a default-constructed context is serial.
/// Algorithms receive an ExecContext so a single pool is reused across all
/// phases of an evaluation (and across queries, when held by an Engine).
class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(const ExecOptions& opts)
      : morsel_size_(opts.morsel_size == 0 ? 4096 : opts.morsel_size) {
    const size_t threads = opts.ResolvedThreads();
    if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads);
  }

  /// The pool, or null in serial mode.
  ThreadPool* pool() const { return pool_.get(); }
  /// Shared ownership, for enumerators that outlive their factory call.
  std::shared_ptr<ThreadPool> shared_pool() const { return pool_; }
  size_t morsel_size() const { return morsel_size_; }
  bool serial() const { return pool_ == nullptr; }

  /// The cancellation token the evaluation loops poll. Inert by default.
  const CancelToken& cancel() const { return cancel_; }

  /// A copy of this context (sharing the pool) that polls `token`. The
  /// serving layer wraps the engine's context per request this way.
  ExecContext WithCancel(CancelToken token) const {
    ExecContext out = *this;
    out.cancel_ = std::move(token);
    return out;
  }

  /// The trace sink the instrumentation sites report to, or null (the
  /// default — tracing off, near-zero cost). Not owned; the caller keeps
  /// the TraceContext alive for the duration of the evaluation.
  TraceContext* trace() const { return trace_; }

  /// A copy of this context that reports spans/counters to `trace`.
  /// Pass nullptr to detach.
  ExecContext WithTrace(TraceContext* trace) const {
    ExecContext out = *this;
    out.trace_ = trace;
    return out;
  }

 private:
  std::shared_ptr<ThreadPool> pool_;
  size_t morsel_size_ = 4096;
  CancelToken cancel_;
  TraceContext* trace_ = nullptr;
};

}  // namespace fgq

#endif  // FGQ_UTIL_EXEC_OPTIONS_H_
