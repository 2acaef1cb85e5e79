#include "fgq/eval/prepared.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "fgq/db/index.h"
#include "fgq/db/tag_key_set.h"
#include "fgq/trace/trace.h"
#include "fgq/util/hash.h"
#include "fgq/util/simd.h"
#include "fgq/util/small_sort.h"

namespace fgq {

namespace {

/// Combined row count below which a semijoin/join runs serially.
constexpr size_t kParallelRowCutoff = size_t{1} << 13;

/// Records how many probes a batched kernel resolved and through which
/// path: the SIMD tiers count batch resolutions (`simd_probe_batches`),
/// the forced-scalar path counts raw probes (`scalar_fallback_probes`).
/// One counter bump per kernel call — counters are context-level and
/// thread-safe, so this is safe from pool threads.
void TraceProbePath(const ExecContext& ctx, size_t num_probes) {
  if (num_probes == 0) return;
  if (ActiveSimdPath() == SimdPath::kScalar) {
    TraceCounter(ctx.trace(), "scalar_fallback_probes", num_probes);
  } else {
    TraceCounter(ctx.trace(), "simd_probe_batches", (num_probes + 7) / 8);
  }
}

}  // namespace

int PreparedAtom::VarIndex(const std::string& v) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == v) return static_cast<int>(i);
  }
  return -1;
}

std::vector<size_t> PreparedAtom::SharedColumns(
    const PreparedAtom& other) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (other.VarIndex(vars[i]) >= 0) out.push_back(i);
  }
  return out;
}

Result<PreparedAtom> PrepareAtom(const Atom& atom, const Database& db,
                                 const ExecContext& ctx) {
  FGQ_ASSIGN_OR_RETURN(const Relation* rel, db.Find(atom.relation));
  if (rel->arity() != atom.arity()) {
    return Status::InvalidArgument(
        "atom " + atom.ToString() + " has arity " +
        std::to_string(atom.arity()) + " but relation '" + atom.relation +
        "' has arity " + std::to_string(rel->arity()));
  }
  PreparedAtom out;
  out.vars = atom.Variables();
  // Column of the first occurrence of each distinct variable.
  std::vector<size_t> first_col(out.vars.size());
  for (size_t v = 0; v < out.vars.size(); ++v) {
    for (size_t j = 0; j < atom.args.size(); ++j) {
      if (atom.args[j].is_var() && atom.args[j].var == out.vars[v]) {
        first_col[v] = j;
        break;
      }
    }
  }
  const size_t arity = atom.args.size();
  const size_t n = rel->NumTuples();
  // One bulk increment per atom scan (PrepareAtoms may run this on a pool
  // thread — counters are context-level and thread-safe, unlike spans).
  TraceCounter(ctx.trace(), "tuples_scanned", n);

  // Hoisted column base pointers: the admission test and the projection
  // below read cells through these, never materializing a row.
  std::vector<const Value*> ac(arity);
  for (size_t j = 0; j < arity; ++j) ac[j] = rel->Column(j);

  // Row admission test: constants must match and repeated variables must
  // agree with their first occurrence. always_inline for the same reason
  // as the mark kernels: the per-row call must stay folded into the scan
  // loop whatever GCC's unit-growth budget decides.
  auto keep_row = [&](size_t i) __attribute__((always_inline)) {
    for (size_t j = 0; j < arity; ++j) {
      const Term& a = atom.args[j];
      if (!a.is_var()) {
        if (ac[j][i] != a.constant) return false;
        continue;
      }
      for (size_t v = 0; v < out.vars.size(); ++v) {
        if (out.vars[v] == a.var) {
          if (ac[j][i] != ac[first_col[v]][i]) return false;
          break;
        }
      }
    }
    return true;
  };

  if (out.vars.empty()) {
    // All-constant atom: the output is nullary — present iff any row
    // passes admission.
    out.rel = Relation(atom.relation, 0);
    for (size_t i = 0; i < n; ++i) {
      if (keep_row(i)) {
        out.rel.AddNullary();
        break;
      }
    }
    return out;
  }

  // All distinct variables in column order (no constant, no repeat): every
  // row is admitted unchanged, so a canonical source is already the
  // answer and skips the scan and the sort. The copy shares the
  // database's columns; a later write to the atom (a sweep's compaction)
  // builds its own.
  if (out.vars.size() == arity && rel->sorted()) {
    out.rel = *rel;
    TraceCounter(ctx.trace(), "relation_columns_shared", arity);
    return out;
  }

  // Admission bitmap first (morsel-parallel; bytes are position-disjoint),
  // then each output column is one filtered gather of a source column —
  // fully column-wise, identical for any thread count.
  std::vector<uint8_t> keep(n);
  ThreadPool* pool = ctx.pool();
  auto admit_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) keep[i] = keep_row(i) ? 1 : 0;
  };
  if (pool == nullptr || pool->num_threads() <= 1 ||
      n < kParallelRowCutoff) {
    admit_range(0, n);
  } else {
    pool->ParallelFor(n, ctx.morsel_size(), admit_range);
  }
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) kept += keep[i];
  std::vector<Relation::ColumnVec> out_cols(out.vars.size());
  for (size_t v = 0; v < out.vars.size(); ++v) {
    const Value* src = ac[first_col[v]];
    Relation::ColumnVec& col = out_cols[v];
    col.reserve(kept);
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) col.push_back(src[i]);
    }
  }
  out.rel = Relation::FromColumns(atom.relation, std::move(out_cols));
  out.rel.SortDedup(ctx);
  return out;
}

Result<std::vector<PreparedAtom>> PrepareAtoms(const ConjunctiveQuery& q,
                                               const Database& db,
                                               const ExecContext& ctx) {
  std::vector<const Atom*> positive;
  for (const Atom& a : q.atoms()) {
    if (!a.negated) positive.push_back(&a);
  }
  ThreadPool* pool = ctx.pool();
  if (pool == nullptr || pool->num_threads() <= 1 || positive.size() <= 1) {
    std::vector<PreparedAtom> out;
    out.reserve(positive.size());
    for (const Atom* a : positive) {
      FGQ_ASSIGN_OR_RETURN(PreparedAtom pa, PrepareAtom(*a, db, ctx));
      out.push_back(std::move(pa));
    }
    return out;
  }
  // One task per atom; each task morsel-chunks its own scan. Slots are
  // disjoint, so no synchronization beyond the loop barrier is needed.
  std::vector<std::optional<Result<PreparedAtom>>> slots(positive.size());
  pool->ParallelFor(positive.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      slots[i].emplace(PrepareAtom(*positive[i], db, ctx));
    }
  });
  std::vector<PreparedAtom> out;
  out.reserve(positive.size());
  for (std::optional<Result<PreparedAtom>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    out.push_back(std::move(*slot).value());
  }
  return out;
}

namespace {

/// Pool-recycled alive bitmap: one byte per row, and at fixture sizes the
/// buffer crosses malloc's mmap threshold, so recycling matters.
using ByteVec = std::vector<uint8_t, PoolAllocator<uint8_t>>;

/// Linear-merge mark over two relations sorted on a shared leading
/// column: both key columns are nondecreasing, so one forward pass over
/// each side decides every target run with no hash set at all. Clears the
/// alive byte of every target row whose key is absent from the source;
/// returns the number of rows left alive.
size_t MergeMarkMisses(const Value* tv, size_t nt, const Value* sv, size_t ns,
                       uint8_t* alive) {
  size_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < nt;) {
    const Value v = tv[i];
    size_t e = i + 1;
    while (e < nt && tv[e] == v) ++e;
    while (j < ns && sv[j] < v) ++j;
    if (j < ns && sv[j] == v) {
      for (; i < e; ++i) count += alive[i] ? 1 : 0;
    } else {
      for (; i < e; ++i) alive[i] = 0;
    }
  }
  return count;
}

/// One semijoin as a pure bitmap update: clears the alive byte of every
/// `target` row whose shared-variable key has no alive counterpart in
/// `source`. Returns the new alive count of the target.
size_t SemijoinMark(const PreparedAtom& target, ByteVec* t_alive,
                    size_t t_count, const PreparedAtom& source,
                    const ByteVec* s_alive, size_t s_count,
                    const ExecContext& ctx) {
  std::vector<size_t> target_cols = target.SharedColumns(source);
  if (target_cols.empty()) {
    // No shared variables: reduction only applies when source is empty
    // (the cross-product factor vanishes).
    if (s_count == 0 && t_count > 0) {
      std::fill(t_alive->begin(), t_alive->end(), 0);
      return 0;
    }
    return t_count;
  }
  std::vector<size_t> source_cols;
  for (size_t c : target_cols) {
    source_cols.push_back(
        static_cast<size_t>(source.VarIndex(target.vars[c])));
  }
  const size_t nt = target.rel.NumTuples();
  TraceCounter(ctx.trace(), "tuples_probed", nt);
  // Sorted-merge fast path: a single shared column that leads the
  // canonical sort order on both sides (the dominant join-tree connector
  // shape). Both columns are nondecreasing, so a linear merge replaces
  // the hash-set build and every probe. Requires a full source (no source
  // bitmap — dead source rows can't be skipped by value order).
  if (target_cols.size() == 1 && target_cols[0] == 0 && source_cols[0] == 0 &&
      s_alive == nullptr && target.rel.sorted() && source.rel.sorted()) {
    TraceCounter(ctx.trace(), "sorted_merge_marks", 1);
    return MergeMarkMisses(target.rel.Column(0), nt, source.rel.Column(0),
                           source.rel.NumTuples(), t_alive->data());
  }
  ThreadPool* pool = ctx.pool();
  const bool serial = pool == nullptr || pool->num_threads() <= 1 ||
                      nt < kParallelRowCutoff;
  // Dense-domain fast path: single-column connector whose source values
  // densely fill their [min, max] range (the normal shape for dictionary-
  // encoded ids). One presence bit per range value, probed with a single
  // shift-and-test — no hash, and the bitmap is a few KiB of L1-resident
  // state. Build() declines sparse or wide ranges, falling through to the
  // tag table.
  if (target_cols.size() == 1) {
    DenseKeySet dense;
    if (dense.Build(source.rel.Column(source_cols[0]),
                    s_alive == nullptr ? nullptr : s_alive->data(),
                    source.rel.NumTuples())) {
      TraceCounter(ctx.trace(), "dense_bitmap_marks", 1);
      const Value* tcol = target.rel.Column(target_cols[0]);
      if (serial) {
        return static_cast<size_t>(
            dense.MarkMisses(tcol, t_alive->data(), 0, nt));
      }
      std::atomic<uint64_t> live{0};
      pool->ParallelFor(nt, ctx.morsel_size(), [&](size_t begin, size_t end) {
        live.fetch_add(dense.MarkMisses(tcol, t_alive->data(), begin, end),
                       std::memory_order_relaxed);
      });
      return static_cast<size_t>(live.load());
    }
  }
  // The set build is a single O(|source|) pass; probes fan out per morsel
  // through the batched mark kernels (disjoint alive bytes, so the
  // marking is race-free and deterministic; each kernel call returns its
  // range's survivor count, so the bitmap is never rescanned).
  TagKeySet keys(source.rel, source_cols,
                 s_alive == nullptr ? nullptr : s_alive->data());
  TraceProbePath(ctx, nt);
  std::vector<const Value*> tcols;
  tcols.reserve(target_cols.size());
  for (size_t c : target_cols) tcols.push_back(target.rel.Column(c));
  if (serial) {
    return static_cast<size_t>(
        keys.MarkMisses(tcols.data(), t_alive->data(), 0, nt));
  }
  std::atomic<uint64_t> live{0};
  pool->ParallelFor(nt, ctx.morsel_size(), [&](size_t begin, size_t end) {
    live.fetch_add(keys.MarkMisses(tcols.data(), t_alive->data(), begin, end),
                   std::memory_order_relaxed);
  });
  return static_cast<size_t>(live.load());
}

/// All-alive bitmap for one prepared atom (nullary atoms count their
/// present marker as one row).
ByteVec AllAlive(const PreparedAtom& atom) {
  return ByteVec(atom.rel.NumTuples(), 1);
}

}  // namespace

void SemijoinReduce(PreparedAtom* target, const PreparedAtom& source,
                    const ExecContext& ctx) {
  const size_t nt = target->rel.NumTuples();
  ByteVec alive = AllAlive(*target);
  const size_t count = SemijoinMark(*target, &alive, nt, source,
                                    /*s_alive=*/nullptr,
                                    source.rel.NumTuples(), ctx);
  if (count != nt) target->rel.CompactRows(alive.data());
}

namespace {

using OffsetVec = std::vector<uint32_t, PoolAllocator<uint32_t>>;

/// Run-offset table of a canonical relation keyed on its leading column:
/// each key's rows are one contiguous run, so the rows with key v are
/// [off[v - *lo], off[v - *lo + 1]). One pass over the key column, in
/// place of a hash index. Declines (false) an empty column or a key range
/// too sparse or wide for a flat table (HashIndex::DenseKeyRange).
bool BuildRunOffsets(const Value* key, size_t n, OffsetVec* off, Value* lo) {
  if (n == 0) return false;
  const uint64_t range =
      static_cast<uint64_t>(key[n - 1]) - static_cast<uint64_t>(key[0]) + 1;
  uint64_t distinct = 1;
  for (size_t i = 1; i < n; ++i) distinct += key[i] != key[i - 1] ? 1 : 0;
  if (!HashIndex::DenseKeyRange(range, distinct)) return false;
  *lo = key[0];
  off->resize(range + 1);
  uint64_t next = 0;  // First table slot not yet written.
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && key[i] == key[i - 1]) continue;
    const uint64_t d =
        static_cast<uint64_t>(key[i]) - static_cast<uint64_t>(*lo);
    for (; next <= d; ++next) (*off)[next] = static_cast<uint32_t>(i);
  }
  for (; next <= range; ++next) (*off)[next] = static_cast<uint32_t>(n);
  return true;
}

/// Sorts the rows [b, e) of `cols` on columns 1.. (column 0 is constant
/// over the segment) and drops adjacent duplicates in place; returns the
/// number of rows kept at b. One trailing column sorts in place; wider
/// rows are gathered row-major into `rows`, sorted through the index
/// permutation `perm` and scattered back distinct.
size_t SortDedupSegment(std::vector<Relation::ColumnVec>* cols, size_t b,
                        size_t e, std::vector<Value>* rows,
                        std::vector<uint32_t>* perm) {
  const size_t n = e - b;
  const size_t width = cols->size() - 1;
  if (n <= 1) return n;
  if (width == 0) return 1;
  if (width == 1) {
    Value* seg = (*cols)[1].data() + b;
    SmallSort(seg, n, std::less<Value>());
    return static_cast<size_t>(std::unique(seg, seg + n) - seg);
  }
  rows->resize(n * width);
  for (size_t c = 0; c < width; ++c) {
    const Value* src = (*cols)[c + 1].data() + b;
    for (size_t r = 0; r < n; ++r) (*rows)[r * width + c] = src[r];
  }
  const Value* base = rows->data();
  auto row = [&](uint32_t r) { return base + size_t{r} * width; };
  perm->resize(n);
  for (size_t r = 0; r < n; ++r) (*perm)[r] = static_cast<uint32_t>(r);
  SmallSort(perm->data(), n, [&](uint32_t x, uint32_t y) {
    return std::lexicographical_compare(row(x), row(x) + width, row(y),
                                        row(y) + width);
  });
  size_t kept = 0;
  const Value* last = nullptr;
  for (const uint32_t r : *perm) {
    if (last != nullptr && std::equal(last, last + width, row(r))) continue;
    last = row(r);
    for (size_t c = 0; c < width; ++c) (*cols)[c + 1][b + kept] = last[c];
    ++kept;
  }
  return kept;
}

}  // namespace

PreparedAtom JoinProject(const PreparedAtom& left, const PreparedAtom& right,
                         const std::vector<std::string>& keep_vars,
                         const ExecContext& ctx) {
  // Probe from the side whose canonical order leads with the first kept
  // variable: output rows then come out grouped by their column 0, one
  // segment per x-run (the probe rows sharing column 0), and duplicates
  // can only meet inside a segment. The write pass sorts and dedups each
  // segment as soon as it is written, so the output is canonical with no
  // SortDedup pass over it.
  auto leads_output = [&](const PreparedAtom& a) {
    return !keep_vars.empty() && a.rel.sorted() && !a.vars.empty() &&
           a.vars[0] == keep_vars[0];
  };
  const bool swap = leads_output(right) && !leads_output(left);
  const PreparedAtom& probe = swap ? right : left;
  const PreparedAtom& build = swap ? left : right;
  const bool by_segments = leads_output(probe);

  const std::vector<size_t> probe_cols = probe.SharedColumns(build);
  std::vector<size_t> build_cols;
  for (size_t c : probe_cols) {
    build_cols.push_back(static_cast<size_t>(build.VarIndex(probe.vars[c])));
  }
  const size_t np = probe.rel.NumTuples();
  TraceCounter(ctx.trace(), "tuples_probed", np);

  // Two tiers, as in SemijoinMark: a canonical build side keyed on its
  // leading column over a dense range is its own index (one run per key);
  // every other shape builds a HashIndex.
  OffsetVec run_off;
  Value run_lo = 0;
  const bool by_runs =
      build_cols.size() == 1 && build_cols[0] == 0 && build.rel.sorted() &&
      BuildRunOffsets(build.rel.Column(0), build.rel.NumTuples(), &run_off,
                      &run_lo);
  std::optional<HashIndex> index;
  if (by_runs) {
    TraceCounter(ctx.trace(), "join_run_table_probes", np);
  } else {
    index.emplace(build.rel, build_cols, ctx);
    TraceCounter(ctx.trace(), "index_bytes", index->MemoryBytes());
    TraceProbePath(ctx, np);
  }

  // Calls emit(i, len, build_row) for every probe row i in [begin, end):
  // its `len` matching build rows are build_row(0..len).
  auto for_each_match = [&](size_t begin, size_t end, auto&& emit) {
    if (by_runs) {
      const Value* key = probe.rel.Column(probe_cols[0]);
      const uint64_t range = run_off.size() - 1;
      for (size_t i = begin; i < end; ++i) {
        const uint64_t d =
            static_cast<uint64_t>(key[i]) - static_cast<uint64_t>(run_lo);
        const uint32_t b = d < range ? run_off[d] : 0;
        const uint32_t e = d < range ? run_off[d + 1] : 0;
        emit(i, e - b, [b](size_t k) { return b + k; });
      }
    } else {
      // Batched probe: hashes ahead out of the probe key columns and
      // prefetches tag groups (see HashIndex::ProbeRows).
      index->ProbeRows(probe.rel, probe_cols, begin, end,
                       [&](size_t i, HashIndex::RowSpan span) {
                         emit(i, span.size(),
                              [&span](size_t k) { return span[k]; });
                       });
    }
  };

  // Where does each kept variable come from? Resolved straight to a
  // column base pointer; `from_probe` picks whether the probe row or the
  // matched build row indexes it.
  struct Source {
    bool from_probe;
    const Value* col;
  };
  std::vector<Source> sources;
  sources.reserve(keep_vars.size());
  for (const std::string& v : keep_vars) {
    const int pc = probe.VarIndex(v);
    sources.push_back(
        pc >= 0 ? Source{true, probe.rel.Column(static_cast<size_t>(pc))}
                : Source{false, build.rel.Column(
                                    static_cast<size_t>(build.VarIndex(v)))});
  }

  // Count first, then write every output row straight into pre-sized
  // columns: each morsel of probe rows owns the output slice that starts
  // at its prefix-summed count, so the result is the same concatenation
  // for any thread count. Small inputs are one morsel of every row, as is
  // a serial run whatever the grain (ParallelFor then calls body(0, np)).
  // Under by_segments both passes snap each morsel bound forward to the
  // next change of probe column 0, so a morsel owns whole x-runs (a run
  // longer than a morsel leaves later morsels empty).
  const size_t grain = np < kParallelRowCutoff ? std::max<size_t>(np, 1)
                                               : ctx.morsel_size();
  const Value* key0 = by_segments ? probe.rel.Column(0) : nullptr;
  auto snap = [&](size_t p) {
    if (!by_segments || p == 0 || p >= np) return p;
    return static_cast<size_t>(
        std::upper_bound(key0 + p, key0 + np, key0[p - 1]) - key0);
  };
  std::vector<size_t> start((np + grain - 1) / grain + 1, 0);
  ParallelFor(ctx.pool(), np, grain, [&](size_t begin, size_t end) {
    size_t count = 0;
    for_each_match(snap(begin), snap(end),
                   [&](size_t, size_t len, auto&&) { count += len; });
    start[begin / grain + 1] = count;
  });
  for (size_t m = 1; m < start.size(); ++m) start[m] += start[m - 1];
  const size_t total = start.back();

  std::vector<Relation::ColumnVec> cols(sources.size());
  for (Relation::ColumnVec& col : cols) col.resize(total);
  // Rows each morsel kept at its slice's head once its segments closed.
  std::vector<size_t> kept(start.size() - 1, 0);
  if (!sources.empty()) {
    ParallelFor(ctx.pool(), np, grain, [&](size_t begin, size_t end) {
      const size_t m = begin / grain;
      const size_t b = snap(begin);
      size_t w = start[m];
      size_t seg = w;  // First row of the open x-run's segment.
      std::vector<Value> rows;
      std::vector<uint32_t> perm;
      auto close_segment = [&]() {
        w = seg + SortDedupSegment(&cols, seg, w, &rows, &perm);
        seg = w;
      };
      for_each_match(b, snap(end), [&](size_t i, size_t len,
                                       auto&& build_row) {
        if (by_segments && i > b && key0[i] != key0[i - 1]) close_segment();
        for (size_t j = 0; j < sources.size(); ++j) {
          Value* dst = cols[j].data() + w;
          const Value* src = sources[j].col;
          if (sources[j].from_probe) {
            std::fill_n(dst, len, src[i]);
          } else {
            for (size_t k = 0; k < len; ++k) dst[k] = src[build_row(k)];
          }
        }
        w += len;
      });
      if (by_segments) close_segment();
      kept[m] = w - start[m];
    });
  }

  PreparedAtom out;
  out.vars = keep_vars;
  if (!by_segments) {
    out.rel = Relation::FromColumns("join", std::move(cols));
    if (keep_vars.empty() && total > 0) out.rel.AddNullary();
    TraceSpan span(ctx.trace(), "sort_dedup");
    out.rel.SortDedup(ctx);
    return out;
  }
  // Move the morsels' kept slices together; nothing moves when no
  // segment dropped a row.
  TraceCounter(ctx.trace(), "join_segment_dedup_rows", total);
  size_t n = 0;
  for (size_t m = 0; m < kept.size(); ++m) {
    if (start[m] != n && kept[m] > 0) {
      for (Relation::ColumnVec& col : cols) {
        Value* base = col.data();
        std::copy(base + start[m], base + start[m] + kept[m], base + n);
      }
    }
    n += kept[m];
  }
  for (Relation::ColumnVec& col : cols) col.resize(n);
  out.rel = Relation::FromColumns("join", std::move(cols), /*sorted=*/true);
  return out;
}

namespace {

/// Depth of every tree node (root depth 0), grouped per level.
std::vector<std::vector<int>> NodesByDepth(const JoinTree& tree) {
  std::vector<int> order = tree.TopDownOrder();
  std::vector<size_t> depth(tree.parent.size(), 0);
  size_t max_depth = 0;
  for (int e : order) {
    if (tree.parent[e] >= 0) {
      depth[e] = depth[tree.parent[e]] + 1;
      max_depth = std::max(max_depth, depth[e]);
    }
  }
  std::vector<std::vector<int>> levels(max_depth + 1);
  for (int e : order) levels[depth[e]].push_back(e);
  return levels;
}

}  // namespace

void SemijoinSweepBottomUp(std::vector<PreparedAtom>* atoms,
                           const JoinTree& tree, const ExecContext& ctx) {
  if (ctx.pool() == nullptr) {
    for (int e : tree.BottomUpOrder()) {
      if (ctx.cancel().cancelled()) return;
      int p = tree.parent[e];
      if (p >= 0) SemijoinReduce(&(*atoms)[p], (*atoms)[e], ctx);
    }
    return;
  }
  // Level-synchronous: all parents of one depth reduce concurrently. A
  // parent absorbs all of its children in one task (they mutate the same
  // atom), and distinct parents touch disjoint atoms.
  std::vector<std::vector<int>> levels = NodesByDepth(tree);
  for (size_t d = levels.size(); d-- > 0;) {
    if (ctx.cancel().cancelled()) return;
    std::vector<int> parents;
    for (int e : levels[d]) {
      if (!tree.children[e].empty()) parents.push_back(e);
    }
    if (parents.empty()) continue;
    ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
      for (size_t i = b; i < e_; ++i) {
        const int p = parents[i];
        for (int c : tree.children[p]) {
          SemijoinReduce(&(*atoms)[p], (*atoms)[c], ctx);
        }
      }
    });
  }
}

void SemijoinSweepTopDown(std::vector<PreparedAtom>* atoms,
                          const JoinTree& tree, const ExecContext& ctx) {
  if (ctx.pool() == nullptr) {
    for (int e : tree.TopDownOrder()) {
      if (ctx.cancel().cancelled()) return;
      for (int c : tree.children[e]) {
        SemijoinReduce(&(*atoms)[c], (*atoms)[e], ctx);
      }
    }
    return;
  }
  std::vector<std::vector<int>> levels = NodesByDepth(tree);
  for (const std::vector<int>& level : levels) {
    if (ctx.cancel().cancelled()) return;
    std::vector<int> parents;
    for (int e : level) {
      if (!tree.children[e].empty()) parents.push_back(e);
    }
    if (parents.empty()) continue;
    ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
      for (size_t i = b; i < e_; ++i) {
        const int p = parents[i];
        for (int c : tree.children[p]) {
          SemijoinReduce(&(*atoms)[c], (*atoms)[p], ctx);
        }
      }
    });
  }
}

namespace {

/// Per-atom alive bitmaps and live counts of the bitmap sweeps: each
/// semijoin of a sweep flips alive bytes only, and no relation is touched.
struct SweepMarks {
  std::vector<ByteVec> alive;
  std::vector<size_t> count;

  explicit SweepMarks(const std::vector<PreparedAtom>& atoms)
      : alive(atoms.size()), count(atoms.size()) {
    for (size_t i = 0; i < atoms.size(); ++i) {
      alive[i] = AllAlive(atoms[i]);
      count[i] = alive[i].size();
    }
  }

  /// Atom `t` keeps the rows that agree with some alive row of atom `s`.
  void Reduce(const std::vector<PreparedAtom>& atoms, int t, int s,
              const ExecContext& ctx) {
    count[t] = SemijoinMark(atoms[t], &alive[t], count[t], atoms[s],
                            &alive[s], count[s], ctx);
  }

  bool AnyEmpty() const {
    return std::find(count.begin(), count.end(), 0) != count.end();
  }
};

/// One sweep of the bitmap reduction: bottom-up (every node reduces its
/// parent, leaves first) or top-down (every node reduces its children,
/// root first). With a pool it runs level-synchronously, mirroring the
/// materializing sweeps: parents of one tree depth run concurrently
/// (they update disjoint bitmaps). Between nodes (levels in parallel
/// mode) it polls ctx.cancel() and, with `stop_on_empty`, whether an
/// alive count reached 0; returns false when either ended it early.
bool MarkSweep(const std::vector<PreparedAtom>& atoms, const JoinTree& tree,
               bool bottom_up, bool stop_on_empty, SweepMarks* marks,
               const ExecContext& ctx) {
  auto stop = [&] {
    return ctx.cancel().cancelled() || (stop_on_empty && marks->AnyEmpty());
  };
  if (ctx.pool() == nullptr) {
    for (int e : bottom_up ? tree.BottomUpOrder() : tree.TopDownOrder()) {
      if (stop()) return false;
      if (!bottom_up) {
        for (int c : tree.children[e]) marks->Reduce(atoms, c, e, ctx);
      } else if (tree.parent[e] >= 0) {
        marks->Reduce(atoms, tree.parent[e], e, ctx);
      }
    }
    return true;
  }
  const std::vector<std::vector<int>> levels = NodesByDepth(tree);
  for (size_t i = 0; i < levels.size(); ++i) {
    if (stop()) return false;
    std::vector<int> parents;
    for (int e : levels[bottom_up ? levels.size() - 1 - i : i]) {
      if (!tree.children[e].empty()) parents.push_back(e);
    }
    if (parents.empty()) continue;
    ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
      for (size_t j = b; j < e_; ++j) {
        const int p = parents[j];
        for (int c : tree.children[p]) {
          bottom_up ? marks->Reduce(atoms, p, c, ctx)
                    : marks->Reduce(atoms, c, p, ctx);
        }
      }
    });
  }
  return true;
}

}  // namespace

void FullReduceSweeps(std::vector<PreparedAtom>* atoms, const JoinTree& tree,
                      const ExecContext& ctx) {
  SweepMarks marks(*atoms);
  if (MarkSweep(*atoms, tree, /*bottom_up=*/true, /*stop_on_empty=*/false,
                &marks, ctx)) {
    MarkSweep(*atoms, tree, /*bottom_up=*/false, /*stop_on_empty=*/false,
              &marks, ctx);
  }

  // One compaction per atom (skipped when nothing died). On a cancel trip
  // this materializes the partial reduction, matching the materializing
  // sweeps' leave-partially-reduced contract.
  const size_t m = atoms->size();
  auto compact = [&](size_t i) {
    if (marks.count[i] != marks.alive[i].size()) {
      (*atoms)[i].rel.CompactRows(marks.alive[i].data());
    }
  };
  if (ctx.pool() != nullptr && m > 1) {
    ctx.pool()->ParallelFor(m, 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) compact(i);
    });
  } else {
    for (size_t i = 0; i < m; ++i) compact(i);
  }
}

bool BottomUpSweepNonempty(const std::vector<PreparedAtom>& atoms,
                           const JoinTree& tree, const ExecContext& ctx) {
  SweepMarks marks(atoms);
  MarkSweep(atoms, tree, /*bottom_up=*/true, /*stop_on_empty=*/true, &marks,
            ctx);
  return !marks.AnyEmpty();
}

}  // namespace fgq
