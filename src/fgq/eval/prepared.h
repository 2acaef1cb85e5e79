#ifndef FGQ_EVAL_PREPARED_H_
#define FGQ_EVAL_PREPARED_H_

#include <string>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/cq.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"

/// \file prepared.h
/// Atom preparation shared by every CQ evaluation algorithm.
///
/// Each positive atom R(t1..tk) is materialized as a relation over the
/// atom's *distinct variables*: rows violating constant arguments or
/// repeated-variable equalities are dropped, and columns are projected to
/// one per distinct variable (in first-occurrence order). All downstream
/// algorithms (Yannakakis, counting DP, enumerators) then reason purely in
/// terms of variable lists.
///
/// Every function takes an optional ExecContext. With a pool, preparation
/// fans out one task per atom and morsel-chunks the filter/projection scan
/// inside each atom; semijoins build their key set hash-partitioned by
/// morsel and probe in parallel. A default (serial) context reproduces the
/// single-threaded behavior bit-for-bit.
///
/// The semijoin sweeps poll the context's CancelToken between nodes (or
/// levels, in parallel mode) and return early once it trips, leaving the
/// atoms partially reduced; callers holding the token (FullReduce) turn
/// the trip into a DeadlineExceeded/Cancelled Status.

namespace fgq {

/// A positive atom resolved against the database.
struct PreparedAtom {
  /// Distinct variables of the atom, in first-occurrence order; these are
  /// the columns of `rel`.
  std::vector<std::string> vars;
  /// Filtered, projected, deduplicated tuples.
  Relation rel;

  /// Index of `v` in `vars`, or -1.
  int VarIndex(const std::string& v) const;

  /// Column positions (into `vars`) of the variables shared with `other`.
  std::vector<size_t> SharedColumns(const PreparedAtom& other) const;
};

/// Prepares every positive atom of `q` against `db`. Fails if a referenced
/// relation is missing or an atom's arity mismatches its relation.
Result<std::vector<PreparedAtom>> PrepareAtoms(
    const ConjunctiveQuery& q, const Database& db,
    const ExecContext& ctx = ExecContext());

/// Prepares a single atom.
Result<PreparedAtom> PrepareAtom(const Atom& atom, const Database& db,
                                 const ExecContext& ctx = ExecContext());

/// Semijoin reduction: keeps the tuples of `target` that agree with some
/// tuple of `source` on the shared variables. O(|source| + |target|).
void SemijoinReduce(PreparedAtom* target, const PreparedAtom& source,
                    const ExecContext& ctx = ExecContext());

/// In-place join of `left` with `right`, projecting the result onto
/// `keep_vars` (which must be a subset of the union of both variable
/// lists). Returns the joined PreparedAtom.
PreparedAtom JoinProject(const PreparedAtom& left, const PreparedAtom& right,
                         const std::vector<std::string>& keep_vars,
                         const ExecContext& ctx = ExecContext());

/// The bottom-up semijoin sweep of Yannakakis' full reduction: every
/// non-root node reduces its parent. With a pool, sibling subtrees are
/// processed level-synchronously — all parents of one tree depth reduce
/// concurrently (they write disjoint atoms) — and each semijoin is itself
/// morsel-parallel. The reduced atoms are identical to the serial sweep's
/// because semijoins against distinct children commute as row filters.
void SemijoinSweepBottomUp(std::vector<PreparedAtom>* atoms,
                           const JoinTree& tree,
                           const ExecContext& ctx = ExecContext());

/// The top-down sweep: every node reduces its children, root first.
/// Parallel mode processes each depth level concurrently.
void SemijoinSweepTopDown(std::vector<PreparedAtom>* atoms,
                          const JoinTree& tree,
                          const ExecContext& ctx = ExecContext());

/// Both sweeps of Yannakakis' full reduction in one call, run over
/// per-atom selection bitmaps instead of materialized intermediates: each
/// semijoin only flips alive bytes of the target atom, and every relation
/// is compacted exactly once at the end. Produces the same reduced atoms
/// as SemijoinSweepBottomUp followed by SemijoinSweepTopDown, for any
/// thread count. Polls ctx.cancel() between nodes (levels in parallel
/// mode) and compacts the partial reduction on a trip.
void FullReduceSweeps(std::vector<PreparedAtom>* atoms, const JoinTree& tree,
                      const ExecContext& ctx = ExecContext());

/// The bottom-up half of FullReduceSweeps alone, over bitmaps and with no
/// compaction: decides whether the join of `atoms` along `tree` is
/// nonempty (Theorem 4.2's decision procedure — the root keeps a row
/// exactly when some full join row extends it). Returns false as soon as
/// any alive count reaches 0. Polls ctx.cancel() like FullReduceSweeps;
/// after a trip the result is meaningless and the caller reports the
/// token's status.
bool BottomUpSweepNonempty(const std::vector<PreparedAtom>& atoms,
                           const JoinTree& tree,
                           const ExecContext& ctx = ExecContext());

}  // namespace fgq

#endif  // FGQ_EVAL_PREPARED_H_
