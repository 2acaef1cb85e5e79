#ifndef FGQ_EVAL_ENGINE_H_
#define FGQ_EVAL_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "fgq/count/semiring.h"
#include "fgq/db/database.h"
#include "fgq/eval/enumerate.h"
#include "fgq/query/cq.h"
#include "fgq/util/bigint.h"
#include "fgq/util/cancel.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"

/// \file engine.h
/// The unified evaluation facade.
///
/// fgq grew one free function per theorem (EvaluateYannakakis,
/// MakeConstantDelayEnumerator, CountAcq, EvaluateAcqNeq, ...). Those
/// remain available as the low-level API, but applications should talk to
/// fgq::Engine: it classifies a query along the paper's dichotomies
/// (Boolean ACQ / free-connex ACQ / general ACQ / ACQ with disequalities /
/// cyclic or negated), dispatches to the fastest applicable algorithm, and
/// runs it on the engine's shared thread pool according to its
/// ExecOptions. One Engine can serve many queries; it is immutable after
/// construction and safe to share across request threads (each call only
/// reads the configuration and uses the internally synchronized pool).
///
/// The call surface is one request aggregate: build an ExecRequest (query
/// + database + optional per-call options, cancel token, trace sink,
/// semiring) and pass it to Run / Count / SumProduct / Enumerate. The
/// historical Execute overloads were removed after a deprecation cycle;
/// see docs/API.md.
///
/// One executor per plan shape: free-connex enumeration (Theorem 4.6) is
/// always the fgq::vm program (src/fgq/vm/) lowered from the indexed
/// plan; Boolean Run is the semijoin sweep; disequalities go through
/// witness elimination (Theorem 4.20); general ACQs through Yannakakis /
/// linear-delay enumeration; every acyclic aggregate compiles a
/// free-connex form of its query and folds it (vm::Fold, SemiringSumAcq).

namespace fgq {

/// Where a query falls in the paper's complexity landscape; decides the
/// algorithm Engine::Execute dispatches to.
enum class QueryClass {
  /// Boolean acyclic CQ: one bottom-up semijoin sweep, O(||phi|| ||D||)
  /// (Theorem 4.2's model-checking half).
  kBooleanAcyclic,
  /// Free-connex acyclic CQ: linear preprocessing, then output-linear
  /// assembly via the constant-delay plan (Theorem 4.6).
  kFreeConnexAcyclic,
  /// Acyclic but not free-connex: full Yannakakis,
  /// O(||phi|| ||D|| ||phi(D)||) (Theorem 4.2).
  kGeneralAcyclic,
  /// Acyclic with disequality comparisons: witness elimination
  /// (Theorem 4.20) with an oracle fallback.
  kAcyclicDisequalities,
  /// Acyclic with order comparisons: W[1]-hard (Theorem 4.15); served by
  /// the backtracking oracle.
  kAcyclicOrderComparisons,
  /// Contains negated atoms: outside the positive-ACQ fast paths.
  kNegated,
  /// Cyclic: no poly algorithm expected (Theorem 4.1 side); backtracking.
  kCyclic,
};

/// Stable human-readable name ("boolean-acyclic", "free-connex", ...).
const char* QueryClassName(QueryClass c);

class TraceContext;  // src/fgq/trace/trace.h
class Snapshot;      // src/fgq/db/snapshot.h

/// Everything one evaluation call needs, in one aggregate. The query and
/// database are borrowed (non-owning, must outlive the call); the rest
/// defaults to "the engine's configuration, no cancellation, no tracing".
///
///   ExecRequest req(q, db);
///   req.cancel = CancelToken::WithTimeout(50ms);
///   req.trace = &trace;
///   auto res = engine.Run(req);
///
/// One struct instead of N overloads means a new knob (a compiled-plan
/// hint, say) is one new field, not 2^k new signatures.
struct ExecRequest {
  const ConjunctiveQuery* query = nullptr;  ///< Required.
  /// Required unless `snapshot` is set (then it defaults to the
  /// snapshot's database view).
  const Database* db = nullptr;
  /// Optional pinned snapshot (db/snapshot.h). When set, the call
  /// evaluates against snapshot->db() unless `db` overrides it, and any
  /// enumerator returned by Engine::Enumerate holds the snapshot alive
  /// for its own lifetime — cursors can be drained safely after
  /// SnapshotStore::Apply publishes newer epochs.
  std::shared_ptr<const Snapshot> snapshot;
  /// Per-call options override. Unset = the engine's own options; a set
  /// value whose thread count differs spins up a fresh pool for the call.
  std::optional<ExecOptions> options;
  /// Polled by the evaluation loops; a tripped token surfaces as
  /// DeadlineExceeded/Cancelled with partial-work accounting. The default
  /// inert token costs nothing.
  CancelToken cancel;
  /// Span/counter sink for per-phase attribution, or null (untraced fast
  /// path). Not owned; must outlive the call.
  TraceContext* trace = nullptr;
  /// Which commutative semiring Engine::SumProduct aggregates under
  /// (semiring.h). Ignored by Run/Count/Enumerate; kCounting (the
  /// default) makes SumProduct equivalent to Count.
  SemiringId semiring = SemiringId::kCounting;

  ExecRequest() = default;
  ExecRequest(const ConjunctiveQuery& q, const Database& d)
      : query(&q), db(&d) {}
  /// Pins `snap` for the call (and for any returned enumerator).
  ExecRequest(const ConjunctiveQuery& q, std::shared_ptr<const Snapshot> snap)
      : query(&q), snapshot(std::move(snap)) {}
  /// The request keeps a pointer to its query, so a temporary query would
  /// dangle as soon as the full expression ends: name the query instead.
  ExecRequest(ConjunctiveQuery&&, const Database&) = delete;
  ExecRequest(ConjunctiveQuery&&, std::shared_ptr<const Snapshot>) = delete;

  /// The database this request reads: `db` when set, else the snapshot's.
  const Database* EffectiveDb() const;
};

/// The outcome of Engine::Run.
struct ExecResult {
  /// phi(D), columns in head order (arity 0, nonempty marker for Boolean
  /// queries).
  Relation answers;
  /// Structural classification that drove the dispatch.
  QueryClass classification = QueryClass::kCyclic;
  /// The algorithm that produced `answers` (for logging/inspection).
  std::string algorithm;

  size_t NumAnswers() const { return answers.NumTuples(); }
  bool BooleanValue() const { return answers.NumTuples() > 0; }
};

/// The unified entry point to every evaluation algorithm in the library.
class Engine {
 public:
  /// An engine with the given execution options. The thread pool (when
  /// num_threads > 1) is created once and shared by all calls.
  explicit Engine(const ExecOptions& opts = ExecOptions());

  const ExecOptions& options() const { return opts_; }
  /// The engine's execution context (shared pool + morsel size).
  const ExecContext& context() const { return ctx_; }

  /// Structural classification along the paper's dichotomies. Pure
  /// query analysis; does not touch a database.
  static QueryClass Classify(const ConjunctiveQuery& q);

  /// Evaluates phi(D) with the fastest algorithm for the query's class.
  /// InvalidArgument when req.query/req.db is null.
  Result<ExecResult> Run(const ExecRequest& req) const;

  /// Counts |phi(D)| without materializing answers: the compiled fold for
  /// acyclic queries (Theorems 4.21/4.28; checked uint64_t with an exact
  /// BigInt rerun on overflow), oracle fallback otherwise. Both paths run
  /// under ContextFor(req): req.options, req.cancel and req.trace apply.
  Result<BigInt> Count(const ExecRequest& req) const;

  /// Sum-product aggregation under req.semiring (semiring.h): ⊕ over
  /// distinct answers of the ⊗ of first-occurrence head-element weights.
  /// kCounting is Count. Every plain acyclic query runs SemiringSumAcq:
  /// its free-connex form (after the S-component rewrite when it is not
  /// free-connex) is compiled and folded (Theorems 4.21/4.28 lifted to
  /// semirings). Everything else materializes with Run and folds.
  Result<SemiringValue> SumProduct(const ExecRequest& req) const;

  /// Streams the answers with the strongest delay guarantee available:
  /// constant delay for free-connex ACQs, linear delay for general ACQs,
  /// witness-based for ACQ with disequalities, materialize-then-replay
  /// otherwise.
  Result<std::unique_ptr<AnswerEnumerator>> Enumerate(
      const ExecRequest& req) const;

  /// Non-aggregate conveniences (still current API, used by the low-level
  /// tests): equivalent to Run/Count/Enumerate on a default ExecRequest.
  Result<BigInt> Count(const ConjunctiveQuery& q, const Database& db) const {
    return Count(ExecRequest(q, db));
  }
  Result<std::unique_ptr<AnswerEnumerator>> Enumerate(
      const ConjunctiveQuery& q, const Database& db) const {
    return Enumerate(ExecRequest(q, db));
  }

 private:
  /// Assembles the per-call ExecContext from the request (options
  /// override, cancel token, trace sink).
  ExecContext ContextFor(const ExecRequest& req) const;

  ExecOptions opts_;
  ExecContext ctx_;
};

}  // namespace fgq

#endif  // FGQ_EVAL_ENGINE_H_
