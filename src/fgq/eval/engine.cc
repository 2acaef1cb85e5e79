#include "fgq/eval/engine.h"

#include <utility>

#include "fgq/count/acq_count.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/diseq.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/term.h"
#include "fgq/trace/trace.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

namespace fgq {

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kBooleanAcyclic:
      return "boolean-acyclic";
    case QueryClass::kFreeConnexAcyclic:
      return "free-connex";
    case QueryClass::kGeneralAcyclic:
      return "general-acyclic";
    case QueryClass::kAcyclicDisequalities:
      return "acyclic-disequalities";
    case QueryClass::kAcyclicOrderComparisons:
      return "acyclic-order-comparisons";
    case QueryClass::kNegated:
      return "negated";
    case QueryClass::kCyclic:
      return "cyclic";
  }
  return "unknown";
}

const Database* ExecRequest::EffectiveDb() const {
  if (db != nullptr) return db;
  return snapshot != nullptr ? &snapshot->db() : nullptr;
}

namespace {

/// Wraps an enumerator so that it keeps an epoch snapshot alive: the
/// inner cursor borrows relations (and maintained indexes) owned by the
/// snapshot's database, so the wrapper's shared_ptr is what makes
/// draining safe after SnapshotStore::Apply publishes newer epochs.
class SnapshotPinnedEnumerator : public AnswerEnumerator {
 public:
  SnapshotPinnedEnumerator(std::unique_ptr<AnswerEnumerator> inner,
                           std::shared_ptr<const Snapshot> snap)
      : inner_(std::move(inner)), snap_(std::move(snap)) {}

  bool Next(Tuple* out) override { return inner_->Next(out); }

 private:
  std::unique_ptr<AnswerEnumerator> inner_;
  std::shared_ptr<const Snapshot> snap_;
};

Result<std::unique_ptr<AnswerEnumerator>> PinEnumerator(
    Result<std::unique_ptr<AnswerEnumerator>> e,
    const std::shared_ptr<const Snapshot>& snap) {
  if (!e.ok() || snap == nullptr) return e;
  return std::unique_ptr<AnswerEnumerator>(
      new SnapshotPinnedEnumerator(std::move(e).value(), snap));
}

}  // namespace

Engine::Engine(const ExecOptions& opts) : opts_(opts), ctx_(opts) {}

QueryClass Engine::Classify(const ConjunctiveQuery& q) {
  if (q.HasNegation()) return QueryClass::kNegated;
  if (!IsAcyclicQuery(q)) return QueryClass::kCyclic;
  if (!q.comparisons().empty()) {
    for (const Comparison& c : q.comparisons()) {
      if (c.op != Comparison::Op::kNotEqual) {
        return QueryClass::kAcyclicOrderComparisons;
      }
    }
    return QueryClass::kAcyclicDisequalities;
  }
  if (q.IsBoolean()) return QueryClass::kBooleanAcyclic;
  if (IsFreeConnex(q)) return QueryClass::kFreeConnexAcyclic;
  return QueryClass::kGeneralAcyclic;
}

ExecContext Engine::ContextFor(const ExecRequest& req) const {
  // Start from the engine's shared context (its pool); only a per-call
  // ExecOptions override that actually differs forces a fresh pool.
  ExecContext ctx =
      (req.options.has_value() && !(*req.options == opts_))
          ? ExecContext(*req.options)
          : ctx_;
  if (req.cancel.cancellable()) ctx = ctx.WithCancel(req.cancel);
  if (req.trace != nullptr) ctx = ctx.WithTrace(req.trace);
  return ctx;
}

Result<ExecResult> Engine::Run(const ExecRequest& req) const {
  const Database* dbp = req.EffectiveDb();
  if (req.query == nullptr || dbp == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  const Database& db = *dbp;
  const ExecContext ctx = ContextFor(req);
  FGQ_RETURN_NOT_OK(q.Validate());
  ExecResult res;
  res.classification = Classify(q);
  TraceSpan span(ctx.trace(), "engine.execute", "engine");
  if (ctx.trace() != nullptr) {
    span.Arg("query", q.name());
    span.Arg("class", QueryClassName(res.classification));
  }
  switch (res.classification) {
    case QueryClass::kBooleanAcyclic: {
      // The semijoin sweep is already a single pass: no plan to index.
      FGQ_ASSIGN_OR_RETURN(bool sat, EvaluateBooleanAcq(q, db, ctx));
      res.answers = Relation(q.name(), 0);
      if (sat) res.answers.AddNullary();
      res.algorithm = "boolean-semijoin-sweep";
      span.Arg("algorithm", res.algorithm);
      return res;
    }
    case QueryClass::kFreeConnexAcyclic: {
      FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const vm::Program> program,
                           vm::CompileFreeConnex(q, db, ctx));
      auto cursor = vm::MakeProgramCursor(program, ctx.trace());
      {
        TraceSpan drain(ctx.trace(), "enumerate");
        res.answers = DrainEnumerator(cursor.get(), q.name(), q.arity());
      }
      TraceCounter(ctx.trace(), "tuples_emitted", res.answers.NumTuples());
      res.algorithm = program->algorithm;
      span.Arg("algorithm", res.algorithm);
      return res;
    }
    case QueryClass::kGeneralAcyclic: {
      FGQ_ASSIGN_OR_RETURN(res.answers, EvaluateYannakakis(q, db, ctx));
      TraceCounter(ctx.trace(), "tuples_emitted", res.answers.NumTuples());
      res.algorithm = "yannakakis";
      span.Arg("algorithm", res.algorithm);
      return res;
    }
    case QueryClass::kAcyclicDisequalities: {
      {
        TraceSpan neq(ctx.trace(), "neq_witness_elimination");
        FGQ_ASSIGN_OR_RETURN(res.answers, EvaluateAcqNeq(q, db));
      }
      TraceCounter(ctx.trace(), "tuples_emitted", res.answers.NumTuples());
      res.algorithm = "neq-witness-elimination";
      span.Arg("algorithm", res.algorithm);
      return res;
    }
    case QueryClass::kAcyclicOrderComparisons:
    case QueryClass::kNegated:
    case QueryClass::kCyclic: {
      {
        TraceSpan oracle(ctx.trace(), "oracle.backtrack");
        FGQ_ASSIGN_OR_RETURN(res.answers,
                             EvaluateBacktrack(q, db, ctx.cancel()));
      }
      TraceCounter(ctx.trace(), "tuples_emitted", res.answers.NumTuples());
      res.algorithm = "backtracking-oracle";
      span.Arg("algorithm", res.algorithm);
      return res;
    }
  }
  return Status::Internal("unhandled query class");
}

Result<BigInt> Engine::Count(const ExecRequest& req) const {
  const Database* db = req.EffectiveDb();
  if (req.query == nullptr || db == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  FGQ_RETURN_NOT_OK(req.query->Validate());
  // CountAnswers already dispatches: the compiled fold (Theorems
  // 4.21/4.28) for plain acyclic queries, oracle fallback otherwise; both
  // honor req.options, req.cancel and req.trace through the context.
  return CountAnswers(*req.query, *db, ContextFor(req));
}

Result<SemiringValue> Engine::SumProduct(const ExecRequest& req) const {
  const Database* db = req.EffectiveDb();
  if (req.query == nullptr || db == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  FGQ_RETURN_NOT_OK(q.Validate());
  if (req.semiring == SemiringId::kCounting) {
    // Counting is Count: CountAnswers folds the compiled plan in checked
    // uint64_t, exactly in BigInt on overflow (the oracle outside plain
    // ACQ), through the same SemiringSumAcq as the other semirings.
    FGQ_ASSIGN_OR_RETURN(BigInt c, Count(req));
    return SemiringValue::Counting(std::move(c));
  }
  const QueryClass cls = Classify(q);
  const ExecContext ctx = ContextFor(req);
  TraceSpan span(ctx.trace(), "engine.sum_product", "engine");
  if (ctx.trace() != nullptr) {
    span.Arg("query", q.name());
    span.Arg("semiring", SemiringName(req.semiring));
  }
  switch (cls) {
    case QueryClass::kBooleanAcyclic:
    case QueryClass::kFreeConnexAcyclic:
    case QueryClass::kGeneralAcyclic:
      return SemiringSumAcq(q, *db, req.semiring, ctx);
    case QueryClass::kAcyclicDisequalities:
    case QueryClass::kAcyclicOrderComparisons:
    case QueryClass::kNegated:
    case QueryClass::kCyclic: {
      // Outside the fold's class: materialize the (distinct) answer set and
      // fold it — the same reference semantics the differ checks.
      FGQ_ASSIGN_OR_RETURN(ExecResult res, Run(req));
      return FoldAnswersSemiring(q, res.answers, req.semiring);
    }
  }
  return Status::Internal("unhandled query class");
}

Result<std::unique_ptr<AnswerEnumerator>> Engine::Enumerate(
    const ExecRequest& req) const {
  const Database* dbp = req.EffectiveDb();
  if (req.query == nullptr || dbp == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  const Database& db = *dbp;
  FGQ_RETURN_NOT_OK(q.Validate());
  const ExecContext ctx = ContextFor(req);
  switch (Classify(q)) {
    case QueryClass::kBooleanAcyclic:
    case QueryClass::kFreeConnexAcyclic:
      return PinEnumerator(MakeConstantDelayEnumerator(q, db, ctx),
                           req.snapshot);
    case QueryClass::kGeneralAcyclic:
      return PinEnumerator(MakeLinearDelayEnumerator(q, db, ctx),
                           req.snapshot);
    case QueryClass::kAcyclicDisequalities: {
      // Theorem 4.20's fast path needs a specific shape; fall back to
      // materializing when it declines.
      Result<std::unique_ptr<AnswerEnumerator>> e = MakeNeqEnumerator(q, db);
      if (e.ok()) return PinEnumerator(std::move(e), req.snapshot);
      break;
    }
    default:
      break;
  }
  // The materialized path copies the answers out of the database, so the
  // replay cursor owns its data and needs no pin.
  FGQ_ASSIGN_OR_RETURN(ExecResult res, Run(req));
  return MakeMaterializedEnumerator(std::move(res.answers));
}

}  // namespace fgq
