#ifndef FGQ_EVAL_ENUMERATE_H_
#define FGQ_EVAL_ENUMERATE_H_

#include <memory>
#include <utility>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/eval/prepared.h"
#include "fgq/query/cq.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"

/// \file enumerate.h
/// Answer enumeration for acyclic conjunctive queries.
///
/// Three enumerators with increasingly strong delay guarantees:
///
/// * MakeMaterializedEnumerator — the baseline: compute phi(D) in full,
///   then replay it. Preprocessing pays the whole evaluation cost.
/// * MakeLinearDelayEnumerator — Theorem 4.3 / Algorithm 2 of the paper:
///   linear-time preprocessing and O(||phi|| * ||D||) delay, for every
///   acyclic conjunctive query. Each step fixes the next head variable and
///   re-reduces the restricted instance; full reduction guarantees every
///   candidate extends to an answer, so there are no dead ends.
/// * MakeConstantDelayEnumerator — Theorem 4.6: for *free-connex* acyclic
///   queries, linear-time preprocessing and delay depending only on the
///   query. Preprocessing fully reduces the instance and projects it onto
///   the free variables (safe exactly because the query is free-connex);
///   the enumeration phase is an odometer walk over hash-indexed
///   join-tree nodes in which every probe is guaranteed nonempty, run as
///   an fgq::vm program (src/fgq/vm/).
///
/// Factories accept ExecOptions: preprocessing (full reduction, free-
/// variable projections, hash-index builds) runs morsel-parallel on a
/// work-stealing pool when num_threads > 1, while the enumeration phase
/// itself stays single-threaded — the delay guarantees are per answer and
/// unaffected. The default options reproduce serial behavior bit-for-bit.

namespace fgq {

/// Pull-based answer stream. Answers arrive with no repetition; column
/// order matches the query head.
class AnswerEnumerator {
 public:
  virtual ~AnswerEnumerator() = default;

  /// Fills `out` with the next answer and returns true, or returns false
  /// when the answer set is exhausted.
  virtual bool Next(Tuple* out) = 0;
};

/// Baseline: materialize, then replay.
std::unique_ptr<AnswerEnumerator> MakeMaterializedEnumerator(Relation answers);

/// Theorem 4.3: linear-preprocessing, linear-delay enumeration for any
/// acyclic conjunctive query (no negation/comparisons).
Result<std::unique_ptr<AnswerEnumerator>> MakeLinearDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db,
    const ExecOptions& opts = ExecOptions());
Result<std::unique_ptr<AnswerEnumerator>> MakeLinearDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx);

/// Theorem 4.6: linear-preprocessing, constant-delay enumeration for
/// free-connex acyclic conjunctive queries: a cursor over the compiled
/// program of vm::CompileFreeConnex. Fails with InvalidArgument if the
/// query is not acyclic or not free-connex, Unsupported if its plan is
/// too large for the VM's 16-bit operands.
Result<std::unique_ptr<AnswerEnumerator>> MakeConstantDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db,
    const ExecOptions& opts = ExecOptions());
Result<std::unique_ptr<AnswerEnumerator>> MakeConstantDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx);

/// Drains an enumerator into a relation (test/bench helper).
Relation DrainEnumerator(AnswerEnumerator* e, const std::string& name,
                         size_t arity);

/// The preprocessing artifact shared by the constant-delay enumerator and
/// the random-access structure (random_access.h): the fully reduced
/// free-projection join tree of a free-connex query. `nodes` are in
/// top-down order; `parent[i]` indexes into `nodes` (-1 for the root).
struct FreeConnexPlan {
  std::vector<PreparedAtom> nodes;
  std::vector<int> parent;
  /// True when phi(D) is empty (nodes/parent are then unspecified).
  bool empty = false;
};

/// Runs the Theorem 4.6 preprocessing and returns the plan. Fails for
/// non-acyclic or non-free-connex queries. Boolean queries yield an empty
/// node list with `empty` reflecting satisfiability.
Result<FreeConnexPlan> BuildFreeConnexPlan(
    const ConjunctiveQuery& q, const Database& db,
    const ExecOptions& opts = ExecOptions());
Result<FreeConnexPlan> BuildFreeConnexPlan(const ConjunctiveQuery& q,
                                           const Database& db,
                                           const ExecContext& ctx);

/// A FreeConnexPlan plus everything the enumeration phase needs that is
/// data-dependent but query-independent of the *cursor*: per-node hash
/// indexes on the parent connector, connector column maps, head output
/// slots, and root candidate lists. Immutable once vm::CompileFreeConnex
/// has built it, so the vm::Program lowered from it (which keeps it alive) can back any
/// number of concurrent cursors — the serving layer caches that program,
/// making repeated queries skip both the reduction sweeps and the index
/// builds.
struct IndexedFreeConnexPlan {
  std::vector<PreparedAtom> nodes;  // Top-down join-tree order.
  std::vector<int> parent;          // Index into nodes, -1 for roots.
  /// parent_cols[i][k]: the parent column matching node i's k-th
  /// connector column.
  std::vector<std::vector<size_t>> parent_cols;
  /// Index of node i keyed by its connector with the parent (null for
  /// roots, which the cursor walks through `root_rows`).
  std::vector<std::unique_ptr<HashIndex>> indexes;
  /// (node, column) providing each head variable, in head order.
  std::vector<std::pair<size_t, size_t>> out_slots;
  /// Candidate row ids for nodes with no parent; empty for other nodes.
  std::vector<std::vector<uint32_t>> root_rows;
  /// True when phi(D) is empty.
  bool empty = false;
  /// True for a Boolean query (no output columns; `empty` is the verdict).
  bool is_boolean = false;
};

}  // namespace fgq

#endif  // FGQ_EVAL_ENUMERATE_H_
