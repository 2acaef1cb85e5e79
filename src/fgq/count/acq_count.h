#ifndef FGQ_COUNT_ACQ_COUNT_H_
#define FGQ_COUNT_ACQ_COUNT_H_

#include <functional>
#include <memory>

#include "fgq/count/fields.h"
#include "fgq/count/semiring.h"
#include "fgq/db/database.h"
#include "fgq/query/cq.h"
#include "fgq/trace/trace.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"
#include "fgq/vm/fold.h"
#include "fgq/vm/program.h"

/// \file acq_count.h
/// Counting and weighted counting of ACQ answers (Section 4.4), all by
/// one route: compile a free-connex form of the query, then fold it.
///
/// * Theorem 4.21: the sum-product of a Boolean or free-connex acyclic
///   query — ⊕ over its answers of the ⊗ of their head-element weights —
///   is one bottom-up pass (vm::Fold, vm/fold.h) over its compiled
///   program (vm::CompileFreeConnex), under any commutative semiring
///   instance (semiring.h) or coefficient field (fields.h). Each head
///   variable is weighted once, at the node that first provides it, and
///   each node's rows find their children's per-group aggregates through
///   the program's own indexes, so the pass is O(||phi|| * ||D||) (within
///   the paper's O(||phi|| * ||D||^2) bound) and builds no Tuple per row.
/// * Theorem 4.28: any other acyclic query is first rewritten. Each
///   S-component is materialized onto its free variables (cost
///   ||D||^O(star size)); the result is quantifier-free, hence
///   free-connex, and compiles like any other. Star size 1 keeps the
///   whole pipeline linear; unbounded star size is #W[1]-hard (the lower
///   bound is exercised by the perfect-matching reduction in
///   matchings.h).
///
/// Counting (CountAcq, CountAnswers, SemiringSumAcq(kCounting)) folds in
/// overflow-checked uint64_t first and reruns the same fold exactly in
/// BigInt only on overflow (vm::RunSemiring).

namespace fgq {

/// Compiles the program whose fold is the sum-product of the plain
/// acyclic query `q`: Boolean and free-connex queries compile directly,
/// any other ACQ after the S-component rewrite of Theorem 4.28 (inside a
/// `count.s_components` span). Unsupported for negation or comparisons,
/// InvalidArgument for a cyclic query. `ctx` supplies the trace sink, the
/// pool and the cancellation token.
Result<std::shared_ptr<const vm::Program>> CompileSumProduct(
    const ConjunctiveQuery& q, const Database& db,
    const ExecContext& ctx = ExecContext());

/// Sum-product of any plain acyclic query over the semiring instance `s`
/// (Fan–Koutris–Zhao style; see semiring.h for the semantics contract):
/// CompileSumProduct, then vm::Fold inside a `count.dp` span. Counting,
/// weighted counting over the fields.h carriers and the tropical
/// aggregates are all instances. The fold runs on a copy of `s`, so a
/// CheckedCountingSemiring's overflow flag is lost: count through
/// SemiringSumAcq(kCounting), which reruns exactly on overflow.
template <typename S>
Result<typename S::ValueType> SumProductAcq(
    const ConjunctiveQuery& q, const Database& db, const S& s,
    const ExecContext& ctx = ExecContext()) {
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const vm::Program> program,
                       CompileSumProduct(q, db, ctx));
  TraceSpan span(ctx.trace(), "count.dp", "count");
  S copy = s;
  return vm::Fold(*program, copy, ctx.cancel(), ctx.trace());
}

/// Sum-product for any plain acyclic query under the registered semiring
/// `id`: CompileSumProduct, then vm::RunSemiring inside a `count.dp`
/// span. kCounting folds in checked uint64_t with the exact BigInt rerun
/// (span `count.dp_exact`) on overflow. `ctx` supplies the trace sink,
/// the pool and the cancellation token.
Result<SemiringValue> SemiringSumAcq(const ConjunctiveQuery& q,
                                     const Database& db, SemiringId id,
                                     const ExecContext& ctx = ExecContext());

/// Folds a materialized answer relation into the semiring aggregate:
/// ⊕ over rows of (⊗ over first-occurrence head columns of the weight).
/// This is the reference semantics the fold must agree with — the fuzz
/// differ folds the brute-force evaluator's answers through this exact
/// function. `answers` columns must be in q.head() order. Under kCounting
/// every row weighs 1, so the fold is answers.NumTuples(), in O(1).
Result<SemiringValue> FoldAnswersSemiring(const ConjunctiveQuery& q,
                                          const Relation& answers,
                                          SemiringId id);

/// Exact answer counting for any acyclic conjunctive query (Theorem
/// 4.28): linear for quantifier-star-size 1, ||D||^O(s) in general.
/// SemiringSumAcq(kCounting)'s count.
Result<BigInt> CountAcq(const ConjunctiveQuery& q, const Database& db);

/// Weighted counting for any plain acyclic query (weights apply to head
/// variables, Section 4.4's #F-ACQ): SumProductAcq over DoubleField.
Result<double> WeightedCountAcq(const ConjunctiveQuery& q, const Database& db,
                                const std::function<double(Value)>& weight);

/// Counts answers of an arbitrary CQ: the fold (SemiringSumAcq) when
/// plain acyclic, exponential backtracking fallback otherwise (oracle use
/// only). Both paths poll `ctx.cancel()` and fail with its status once it
/// trips; the fold reports its spans to `ctx.trace()` as in
/// SemiringSumAcq.
Result<BigInt> CountAnswers(const ConjunctiveQuery& q, const Database& db,
                            const ExecContext& ctx = ExecContext());

}  // namespace fgq

#endif  // FGQ_COUNT_ACQ_COUNT_H_
