#ifndef FGQ_VM_FOLD_H_
#define FGQ_VM_FOLD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "fgq/count/semiring.h"
#include "fgq/trace/trace.h"
#include "fgq/util/cancel.h"
#include "fgq/util/status.h"
#include "fgq/vm/program.h"

/// \file fold.h
/// Theorem 4.21's bottom-up sum-product pass over a compiled Program,
/// templated on the semiring instance: vm::RunSemiring instantiates it
/// for the registered SemiringIds, and SumProductAcq (count/acq_count.h)
/// for any carrier, the fields.h ones included. It is the one join-tree
/// DP of fgq: every acyclic count and aggregate compiles a free-connex
/// form of its query and folds it here.

namespace fgq {
namespace vm {

/// Rows the fold values per block, so the per-row values stay
/// cache-sized whatever the relation size.
inline constexpr size_t kFoldBlock = 4096;
/// The fold polls its token before it starts and then about once per
/// this many rows.
inline constexpr uint64_t kFoldPollRows = uint64_t{1} << 16;

/// Counting and Boolean weigh every element One, so their fold reads no
/// weight column.
template <typename S>
inline constexpr bool kUnitWeights =
    std::is_same_v<S, CheckedCountingSemiring> ||
    std::is_same_v<S, CountingSemiring> || std::is_same_v<S, BooleanSemiring>;

/// ⊕ of `cnt` copies of One under a unit-weight instance: cnt under
/// counting, whether cnt > 0 under Boolean.
template <typename S>
typename S::ValueType CopiesOfOne(const S& s, size_t cnt) {
  static_assert(kUnitWeights<S>);
  if constexpr (std::is_same_v<S, CheckedCountingSemiring>) {
    return cnt;
  } else if constexpr (std::is_same_v<S, CountingSemiring>) {
    return BigInt::FromUint64(cnt);
  } else {
    return cnt == 0 ? s.Zero() : s.One();
  }
}

/// One child's pass over a block of its parent's rows (`block[0..m)`):
/// finds each row's group in child `c` with the batched gathered probe and
/// multiplies the group's aggregate into the row's value `vals[j]`. A
/// `plain` child (unit-weight instances only) has aggregate
/// CopiesOfOne(|group|), any other child `csums[group id]`; a row with no
/// group gets Zero. With `first` the row has no factor yet, so the
/// aggregate is its value; with `to_total` (a root's last child) the
/// value is ⊕-folded into `acc` instead of stored. Kept out of Fold so the
/// semiring state and `acc` stay in registers across the probe loop.
template <typename S, typename Cell>
__attribute__((noinline)) void JoinChild(
    S& s_io, const ProgramNode& c, bool plain, bool first, bool to_total,
    const Cell* csums, const uint32_t* block, size_t m, Cell* vals,
    typename S::ValueType& acc_io) {
  using V = typename S::ValueType;
  S s = s_io;
  V acc = std::move(acc_io);
  auto probe_all = [&](auto&& sink) {
    if (c.npcols == 1) {
      c.index->ProbeGathered<1>(c.pcol_ptrs, block, m, sink);
    } else if (c.npcols == 2) {
      c.index->ProbeGathered<2>(c.pcol_ptrs, block, m, sink);
    } else {
      c.index->ProbeGathered<0>(c.pcol_ptrs, block, m, sink);
    }
  };
  auto group_value = [&](HashIndex::GroupHit hit) -> V {
    if constexpr (kUnitWeights<S>) {
      if (plain) return CopiesOfOne(s, hit.count);
    }
    return csums[hit.id];
  };
  if (plain && first && to_total) {
    // The counting shape: each row's value is its group's CopiesOfOne,
    // which is Zero for a row with no group.
    probe_all([&](size_t, HashIndex::GroupHit hit) {
      acc = s.Plus(acc, group_value(hit));
    });
  } else {
    probe_all([&](size_t j, HashIndex::GroupHit hit) {
      V v = hit.count == 0 ? s.Zero() : group_value(hit);
      if (!first) v = s.Times(vals[j], v);
      if (to_total) {
        acc = s.Plus(acc, v);
      } else {
        vals[j] = std::move(v);
      }
    });
  }
  s_io = s;
  acc_io = std::move(acc);
}

/// Theorem 4.21's bottom-up pass over the program's own join tree and
/// indexes, under semiring instance `s`: the ⊕ over every answer of the ⊗
/// of its head variables' element weights (Program::out), in O(Σ node
/// rows) whatever the answer count. Nodes are visited in reverse
/// top-down order. A row's value is its own weights ⊗ the aggregate of
/// the group it joins in each child (Zero when it joins none). A
/// non-root node stores one aggregate per HashIndex group, the ⊕ of the
/// group's row values, indexed by group id; its parent's rows find their
/// groups through the batched gathered probe (HashIndex::ProbeGathered).
/// Every node of a compiled plan owns a head variable (a node that owns
/// none is a subset of its parent and is absorbed), so only a unit-weight
/// instance meets a leaf that reads no weight; that leaf stores nothing,
/// its group aggregate being CopiesOfOne(|group|), read off the probe.
/// The roots' totals ⊗-combine. The pass runs on a copy of `s`, so a
/// stateful instance (the checked counter's overflow flag) stays in
/// registers; the copy is handed back through `s` on success. Polls
/// `cancel` before it starts and then every ~kFoldPollRows rows;
/// `trace`, when set, receives the rows folded (vm.ops) and the probes
/// made (vm.probes).
template <typename S>
Result<typename S::ValueType> Fold(const Program& program, S& s_io,
                                   const CancelToken& cancel,
                                   TraceContext* trace) {
  using V = typename S::ValueType;
  // Per-row storage; bytes rather than std::vector<bool>'s packed bits.
  using Cell = std::conditional_t<std::is_same_v<V, bool>, uint8_t, V>;
  constexpr const char* kWhat = "vm fold";
  if (cancel.cancelled()) return cancel.Check(kWhat);
  S s = s_io;
  if (program.empty) return s.Zero();
  const size_t n = program.nodes.size();
  // A satisfied Boolean program has one answer: the empty tuple.
  if (n == 0) return s.One();
  const ProgramNode* const nodes = program.nodes.data();
  std::vector<std::vector<uint32_t>> children(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (nodes[i].index != nullptr) children[nodes[i].parent].push_back(i);
  }
  // Base pointers of each node's head-variable columns: its weights.
  std::vector<std::vector<const Value*>> weights(n);
  if constexpr (!kUnitWeights<S>) {
    for (const OutSlot& o : program.out) {
      weights[o.node].push_back(nodes[o.node].cols[o.col]);
    }
    for (const std::vector<const Value*>& w : weights) {
      if (w.empty()) return Status::Internal("plan node owns no head variable");
    }
  }
  auto plain_leaf = [&](size_t i) {
    return kUnitWeights<S> && children[i].empty();
  };
  std::vector<std::vector<Cell>> sums(n);
  // The current block's row values; every read follows a write.
  const std::unique_ptr<Cell[]> vals(new Cell[kFoldBlock]);
  uint64_t rows_done = 0;
  uint64_t poll_at = kFoldPollRows;
  uint64_t probes = 0;
  V total = s.One();
  for (size_t i = n; i-- > 0;) {
    const ProgramNode& node = nodes[i];
    const bool root = node.index == nullptr;
    if constexpr (kUnitWeights<S>) {
      if (plain_leaf(i)) {
        if (root) total = s.Times(total, CopiesOfOne(s, node.root_count));
        continue;
      }
    }
    const std::vector<const Value*>& w = weights[i];
    const std::vector<uint32_t>& kids = children[i];
    // Roots walk their candidate rows; other nodes their index's rows in
    // CSR order, group by group.
    const uint32_t* const rows =
        root ? node.root_data : node.index->row_ids().data();
    const size_t nrows = root ? node.root_count : node.index->row_ids().size();
    const uint32_t* const offsets =
        root ? nullptr : node.index->offsets().data();
    if (!root) sums[i].resize(node.index->NumGroups());
    Cell* const own_sums = sums[i].data();
    if (!root && kids.empty()) {
      // A weighted leaf: ⊕ each group's own weights straight off the CSR.
      auto own = [&](uint32_t r) {
        V v = s.Weight(w[0][r]);
        for (size_t k = 1; k < w.size(); ++k) {
          v = s.Times(v, s.Weight(w[k][r]));
        }
        return v;
      };
      for (size_t g = 0; g < sums[i].size(); ++g) {
        const uint32_t lo = offsets[g];
        const uint32_t hi = offsets[g + 1];
        V a = lo == hi ? s.Zero() : own(rows[lo]);
        for (uint32_t p = lo + 1; p < hi; ++p) a = s.Plus(a, own(rows[p]));
        own_sums[g] = std::move(a);
        rows_done += hi - lo;
        if (rows_done >= poll_at) {
          poll_at = rows_done + kFoldPollRows;
          if (cancel.cancelled()) return cancel.Check(kWhat);
        }
      }
      continue;
    }
    V acc = s.Zero();  // The root's total.
    size_t g = 0;      // The index group of the current row (non-roots).
    for (size_t b = 0; b < nrows; b += kFoldBlock) {
      const size_t m = std::min(kFoldBlock, nrows - b);
      const uint32_t* const block = rows + b;
      // The block's own weights, a column at a time.
      for (size_t k = 0; k < w.size(); ++k) {
        const Value* const col = w[k];
        for (size_t j = 0; j < m; ++j) {
          vals[j] = k == 0 ? s.Weight(col[block[j]])
                           : s.Times(vals[j], s.Weight(col[block[j]]));
        }
      }
      // Each child's aggregate multiplies in. A root's last child ⊕-folds
      // the finished value straight into the total.
      for (size_t k = 0; k < kids.size(); ++k) {
        JoinChild(s, nodes[kids[k]], plain_leaf(kids[k]),
                  /*first=*/k == 0 && w.empty(),
                  /*to_total=*/root && k + 1 == kids.size(),
                  sums[kids[k]].data(), block, m, vals.get(), acc);
        probes += m;
      }
      if (root && kids.empty()) {
        for (size_t j = 0; j < m; ++j) acc = s.Plus(acc, vals[j]);
      } else if (!root) {
        // ⊕ the block's values into their groups; the block may begin or
        // end inside a group.
        for (size_t j = 0; j < m;) {
          while (offsets[g + 1] <= b + j) ++g;
          const size_t end = std::min<size_t>(offsets[g + 1] - b, m);
          V a = vals[j];
          if (b + j != offsets[g]) a = s.Plus(own_sums[g], a);
          for (++j; j < end; ++j) a = s.Plus(a, vals[j]);
          own_sums[g] = std::move(a);
        }
      }
      rows_done += m;
      if (rows_done >= poll_at) {
        poll_at = rows_done + kFoldPollRows;
        if (cancel.cancelled()) return cancel.Check(kWhat);
      }
    }
    if (root) total = s.Times(total, acc);
    for (uint32_t c : kids) sums[c] = {};
  }
  TraceCounter(trace, "vm.ops", rows_done);
  TraceCounter(trace, "vm.probes", probes);
  s_io = s;
  return total;
}

}  // namespace vm
}  // namespace fgq

#endif  // FGQ_VM_FOLD_H_
