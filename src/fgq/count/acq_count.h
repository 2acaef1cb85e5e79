#ifndef FGQ_COUNT_ACQ_COUNT_H_
#define FGQ_COUNT_ACQ_COUNT_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "fgq/count/fields.h"
#include "fgq/count/semiring.h"
#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/eval/prepared.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/cq.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"

/// \file acq_count.h
/// Counting and weighted counting of ACQ answers (Section 4.4).
///
/// * SemiringSumAcq0 — Theorem 4.21: for quantifier-free acyclic
///   queries, a single bottom-up dynamic program over the join tree sums
///   the product-of-weights of all answers, over any commutative semiring
///   instance (semiring.h) or coefficient field (fields.h). Each variable
///   is "owned" by its highest join-tree node so its weight is multiplied
///   exactly once. A child hands its parent one aggregate per HashIndex
///   group, in a flat array; parent rows find theirs through the batched
///   probe, so the pass is O(||phi|| * ||D||) (within the paper's
///   O(||phi|| * ||D||^2) bound) and builds no Tuple per row.
/// * CountAcq — Theorem 4.28: for quantified acyclic queries, each
///   S-component is materialized onto its free variables (cost
///   ||D||^O(star size)) and the resulting quantifier-free acyclic query
///   is counted with the DP. Star size 1 keeps the whole pipeline
///   linear; unbounded star size is #W[1]-hard (the lower bound is
///   exercised by the perfect-matching reduction in matchings.h).
///
/// Counting (CountAcq, CountAnswers, SemiringSumAcq(kCounting)) runs the
/// DP in overflow-checked uint64_t first; only when a sum or product
/// overflows does it rerun the same DP exactly with CountingSemiring's
/// BigInt, over the already-materialized quantifier-free query.

namespace fgq {

/// Column positions in `node` of the variables shared with `parent`, in
/// canonical (name-sorted) order. Both sides of every aggregate/probe key
/// in the counting DP use this order so the keys align.
std::vector<size_t> SharedColumnOrder(const PreparedAtom& node,
                                      const PreparedAtom& parent);

/// Sum-product over an arbitrary commutative semiring instance for
/// quantifier-free acyclic conjunctive queries (Fan–Koutris–Zhao style;
/// see semiring.h for the semantics contract) — the one join-tree DP:
/// counting, weighted counting over the fields.h carriers, and the
/// tropical aggregates are all instances. Each variable is owned by its
/// highest node and weighted exactly once (at its first column there, so
/// R(x,x) weighs x once). Every non-root node indexes its rows on the
/// columns it shares with its parent (SharedColumnOrder) and stores, per
/// index group, the ⊕ of its live rows' values in a flat array at the
/// group's CSR offset; the parent resolves each row's group with
/// HashIndex::ProbeRows and multiplies the aggregate in. The pass is
/// O(||phi|| * ||D||). `ctx` supplies the trace sink (atom scans'
/// counters), the pool of the index builds and the cancellation token,
/// polled every 64K rows (the VM fold's stride too).
template <typename S>
Result<typename S::ValueType> SemiringSumAcq0(
    const ConjunctiveQuery& q, const Database& db, const S& s,
    const ExecContext& ctx = ExecContext()) {
  using V = typename S::ValueType;
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation() || !q.comparisons().empty()) {
    return Status::Unsupported("sum-product DP handles plain ACQ");
  }
  if (!q.ExistentialVariables().empty()) {
    return Status::InvalidArgument(
        "SemiringSumAcq0 requires a quantifier-free query; use "
        "SemiringSumAcq");
  }
  Hypergraph hg = Hypergraph::FromQuery(q);
  GyoResult gyo = GyoReduce(hg);
  if (!gyo.acyclic) {
    return Status::InvalidArgument("query is not acyclic: " + q.ToString());
  }
  FGQ_ASSIGN_OR_RETURN(std::vector<PreparedAtom> atoms,
                       PrepareAtoms(q, db, ctx));

  std::vector<int> order = gyo.tree.TopDownOrder();
  std::vector<size_t> depth(atoms.size(), 0);
  for (int e : order) {
    if (gyo.tree.parent[e] >= 0) depth[e] = depth[gyo.tree.parent[e]] + 1;
  }
  std::map<std::string, int> owner;
  for (size_t e = 0; e < atoms.size(); ++e) {
    for (const std::string& v : atoms[e].vars) {
      auto it = owner.find(v);
      if (it == owner.end() || depth[e] < depth[it->second]) {
        owner[v] = static_cast<int>(e);
      }
    }
  }

  // What a finished child hands its parent: its rows indexed on the
  // shared columns, and per group the ⊕ of the group's live row values,
  // stored at the group's CSR offset (HashIndex::SpanOffset).
  struct Aggregate {
    std::unique_ptr<HashIndex> index;
    std::vector<V> sums;
  };
  std::vector<Aggregate> aggs(atoms.size());
  const CancelToken& cancel = ctx.cancel();
  // Rows are valued one block at a time, so the per-row state stays
  // cache-sized whatever the relation size.
  constexpr size_t kBlock = 4096;
  constexpr size_t kPollRows = size_t{1} << 16;
  static_assert(kPollRows % kBlock == 0);
  std::vector<V> vals;
  std::vector<uint8_t> live;
  for (int e : gyo.tree.BottomUpOrder()) {
    const PreparedAtom& a = atoms[e];
    const size_t n = a.rel.NumTuples();
    const int p = gyo.tree.parent[e];
    // Owned columns: the *first* column of each variable this node owns.
    // (VarIndex returns the first occurrence, so a repeated variable in
    // one atom — R(x,x) — contributes its weight once, as the semantics
    // in semiring.h requires.)
    std::vector<const Value*> owned;
    for (size_t c = 0; c < a.vars.size(); ++c) {
      if (owner[a.vars[c]] == e &&
          static_cast<size_t>(a.VarIndex(a.vars[c])) == c) {
        owned.push_back(a.rel.Column(c));
      }
    }
    // Each child's key columns on this node's side, in the child's
    // SharedColumnOrder.
    const std::vector<int>& children = gyo.tree.children[e];
    std::vector<std::vector<size_t>> probe_cols;
    for (int c : children) {
      std::vector<size_t> cols;
      for (size_t j : SharedColumnOrder(atoms[c], a)) {
        cols.push_back(static_cast<size_t>(a.VarIndex(atoms[c].vars[j])));
      }
      probe_cols.push_back(std::move(cols));
    }
    // A non-root node indexes itself for its parent; group_of[r] is the
    // CSR offset of row r's group, where its value is summed.
    Aggregate* agg = p < 0 ? nullptr : &aggs[e];
    std::vector<uint32_t> group_of;
    if (agg != nullptr) {
      agg->index = std::make_unique<HashIndex>(
          a.rel, SharedColumnOrder(a, atoms[p]), ctx);
      agg->sums.assign(n, s.Zero());
      const std::vector<uint32_t>& offsets = agg->index->offsets();
      const std::vector<uint32_t>& row_ids = agg->index->row_ids();
      group_of.resize(n);
      for (size_t g = 0; g + 1 < offsets.size(); ++g) {
        for (uint32_t i = offsets[g]; i < offsets[g + 1]; ++i) {
          group_of[row_ids[i]] = offsets[g];
        }
      }
    }
    V total = s.Zero();
    for (size_t begin = 0; begin < n; begin += kBlock) {
      if (begin % kPollRows == 0 && cancel.cancelled()) {
        return cancel.Check("counting DP");
      }
      const size_t end = std::min(n, begin + kBlock);
      // Row value: the owned weights times every child's group aggregate;
      // a row with no matching group in some child is dead.
      vals.resize(end - begin);
      for (size_t r = begin; r < end; ++r) {
        V w = s.One();
        for (const Value* col : owned) w = s.Times(w, s.Weight(col[r]));
        vals[r - begin] = std::move(w);
      }
      live.assign(end - begin, 1);
      for (size_t k = 0; k < children.size(); ++k) {
        const Aggregate& child = aggs[children[k]];
        child.index->ProbeRows(
            a.rel, probe_cols[k], begin, end,
            [&](size_t r, HashIndex::RowSpan span) {
              const size_t j = r - begin;
              if (!live[j]) return;
              if (span.empty()) {
                live[j] = 0;
                return;
              }
              vals[j] =
                  s.Times(vals[j], child.sums[child.index->SpanOffset(span)]);
            });
      }
      for (size_t r = begin; r < end; ++r) {
        if (!live[r - begin]) continue;
        if (agg == nullptr) {
          total = s.Plus(total, vals[r - begin]);
        } else {
          const uint32_t g = group_of[r];
          agg->sums[g] = s.Plus(agg->sums[g], vals[r - begin]);
        }
      }
    }
    for (int c : children) aggs[c] = Aggregate{};
    if (p < 0) return total;
  }
  return Status::Internal("join tree had no root");
}

/// Sum-product for any acyclic conjunctive query under the registered
/// semiring `id` (quantified queries go through the S-component
/// pipeline first). kCounting runs the checked uint64_t DP with the
/// exact BigInt rerun on overflow, as CountAcq does. `ctx` supplies the
/// trace sink (the `count.s_components`, `count.dp` and `count.dp_exact`
/// spans), the pool and the cancellation token.
Result<SemiringValue> SemiringSumAcq(const ConjunctiveQuery& q,
                                     const Database& db, SemiringId id,
                                     const ExecContext& ctx = ExecContext());

/// Folds a materialized answer relation into the semiring aggregate:
/// ⊕ over rows of (⊗ over first-occurrence head columns of the weight).
/// This is the reference semantics the DP must agree with — the fuzz
/// differ folds the brute-force evaluator's answers through this exact
/// function. `answers` columns must be in q.head() order. Under kCounting
/// every row weighs 1, so the fold is answers.NumTuples(), in O(1).
Result<SemiringValue> FoldAnswersSemiring(const ConjunctiveQuery& q,
                                          const Relation& answers,
                                          SemiringId id);

/// Exact answer counting for any acyclic conjunctive query (Theorem
/// 4.28): linear for quantifier-star-size 1, ||D||^O(s) in general.
/// Counts in checked uint64_t, rerunning the DP in BigInt on overflow.
Result<BigInt> CountAcq(const ConjunctiveQuery& q, const Database& db);

/// Weighted counting for quantified acyclic queries via the S-component
/// pipeline (weights apply to head variables, Section 4.4's #F-ACQ).
Result<double> WeightedCountAcq(const ConjunctiveQuery& q, const Database& db,
                                const std::function<double(Value)>& weight);

/// Counts answers of an arbitrary CQ: DP/star-size pipeline when acyclic,
/// exponential backtracking fallback otherwise (oracle use only). Both
/// paths poll `ctx.cancel()` and fail with its status once it trips; the
/// DP reports its spans to `ctx.trace()` as in SemiringSumAcq.
Result<BigInt> CountAnswers(const ConjunctiveQuery& q, const Database& db,
                            const ExecContext& ctx = ExecContext());

}  // namespace fgq

#endif  // FGQ_COUNT_ACQ_COUNT_H_
