#ifndef FGQ_DB_INDEX_H_
#define FGQ_DB_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "fgq/db/relation.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/pool_alloc.h"
#include "fgq/util/hash.h"
#include "fgq/util/simd.h"

/// \file index.h
/// Flat hash index over a subset of a relation's columns, with a
/// Swiss-table-style SIMD tag layer.
///
/// Used by semijoins, joins, and the constant-delay enumeration phase:
/// a single O(N) build gives O(1) expected probes, which is what turns
/// Yannakakis' passes into the linear-time preprocessing the paper's
/// Constant-Delay_lin class requires.
///
/// Layout (everything flat, no per-key heap nodes):
///
///   tags_       : one byte per slot — 7 hash bits (bits 57..63), or
///                 kEmptyTag (0x80). Probes compare a whole 32-tag group
///                 per step (simd.h) and only touch the wide arrays on a
///                 tag hit; a group containing an empty slot ends a miss.
///   slot_group_ : group id per slot, parallel to tags_.
///   group_hash_ : the key hash of each group (probe short-circuit; a
///                 full-hash match is verified against the group's first
///                 row, so 64-bit collisions stay correct).
///   offsets_    : CSR offsets, one entry per group plus a sentinel.
///   row_ids_    : CSR payload, the matching row ids per group
///                 (ascending within a group).
///
/// Keys are hashed straight out of the columnar Relation store (cached
/// per-key-column base pointers); neither the build nor a probe ever
/// materializes a Tuple. The index borrows `rel` — the relation must stay
/// alive and unmodified while the index is in use (probes compare key
/// columns against representative rows).
///
/// Determinism: insertion claims the first matching or empty tag bit in
/// probe order, and every SIMD path yields identical match masks, so the
/// built arrays and all probe results are bit-identical across the
/// scalar/SSE2/AVX2 paths *and* across thread counts (large relations are
/// hash-partitioned into a fixed shard count that depends only on the
/// relation size; rows enter each shard in ascending row order either
/// way). This is the contract the differential fuzzer checks.
///
/// Run build: when the relation is sorted() and the key is its leading
/// column prefix {0..k-1}, every key's rows are one contiguous run. The
/// build then hashes each distinct key once, claims its slot (the first
/// empty one in probe order, as the hashing builder would), and writes the
/// run as the group's row ids, with no per-row hash or probe. The arrays
/// are bit-identical to the hashing builder's, which every other input
/// takes (`index_run_build_rows` counts the rows that took the run build).

namespace fgq {

/// Immutable flat hash index mapping key-column values to the matching row
/// ids (ascending per key).
class HashIndex {
 public:
  /// A borrowed view of one key's matching row ids, valid for the lifetime
  /// of the index.
  struct RowSpan {
    const uint32_t* data = nullptr;
    size_t count = 0;

    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    uint32_t operator[](size_t i) const { return data[i]; }
  };

  /// A probe's matching group: its id (its position in offsets()) and its
  /// row count; count 0 on a miss.
  struct GroupHit {
    uint32_t id = 0;
    uint32_t count = 0;
  };

  /// Builds an index on `rel` keyed by `key_cols` (in that order).
  HashIndex(const Relation& rel, std::vector<size_t> key_cols);
  /// Morsel-parallel build; bit-identical to the serial one.
  HashIndex(const Relation& rel, std::vector<size_t> key_cols,
            const ExecContext& ctx);

  /// How a relation changed between two versions, in the shape the delta
  /// build understands: `deleted_rows` (ascending old row ids) were
  /// removed by one order-preserving compaction, then `num_inserted` rows
  /// were appended at the tail (see Relation::CompactRows / AppendFrom —
  /// the shape SnapshotStore::Apply produces).
  struct Delta {
    std::vector<uint32_t> deleted_rows;
    size_t num_inserted = 0;
  };

  /// Incremental build: `base` indexes `old_rel`, and `new_rel` is
  /// `old_rel` with `delta` applied. Produces an index over `new_rel`
  /// that is lookup-equivalent to a fresh build (the flat layout may
  /// differ: deletion-emptied groups persist with empty spans, and new
  /// keys append after the base groups) without re-hashing or re-probing
  /// the surviving rows — the survivor path is a remap + scatter, which
  /// is what makes small-batch maintenance several times cheaper than a
  /// rebuild. Returns null when the delta cannot be applied onto the base
  /// layout (empty base, empty key, arity change, or a shard's slot table
  /// would exceed its load-factor bound); the caller falls back to a full
  /// rebuild.
  static std::unique_ptr<HashIndex> DeltaBuild(const HashIndex& base,
                                               const Relation& old_rel,
                                               const Relation& new_rel,
                                               const Delta& delta);

  /// Rows whose key columns equal `key`.
  RowSpan Lookup(const Tuple& key) const {
    return ProbeGather([&](size_t j) { return key[j]; });
  }

  /// Probe from `key_cols().size()` contiguous values. always_inline for
  /// the same reason as ProbeGather: these wrappers sit in per-tuple loops.
  __attribute__((always_inline)) RowSpan LookupKey(const Value* key) const {
    return ProbeGather([&](size_t j) { return key[j]; });
  }

  /// Probe from row `row` of `src`: gathers `probe_cols` out of the
  /// column store on the fly — no temporary key is built.
  __attribute__((always_inline)) RowSpan LookupAt(
      const Relation& src, size_t row,
      const std::vector<size_t>& probe_cols) const {
    return ProbeGather([&](size_t j) { return src.At(row, probe_cols[j]); });
  }

  /// LookupAt from pre-resolved probe column base pointers (the caller
  /// hoisted Relation::Column once) with the key arity fixed at compile
  /// time (K > 0 must equal key_cols().size()): the hash chain and verify
  /// loop fully unroll, which is what the fgq::vm probe opcodes specialize
  /// on. K = 0 falls back to the runtime arity (and is the only form valid
  /// for empty-key indexes).
  template <size_t K>
  __attribute__((always_inline)) RowSpan LookupColsFixed(
      const Value* const* probe_col_ptrs, size_t row) const {
    return ProbeGather<K>([&](size_t j) { return probe_col_ptrs[j][row]; });
  }

  /// Batched probe over rows [begin, end) of `src`: hashes a batch of 8
  /// keys ahead out of the contiguous probe columns, prefetches their tag
  /// groups, then resolves — the dependent-miss chain of one-at-a-time
  /// probing becomes 8 independent ones. Calls `sink(row, span)` for every
  /// row (span empty on a miss).
  template <typename Sink>
  void ProbeRows(const Relation& src, const std::vector<size_t>& probe_cols,
                 size_t begin, size_t end, Sink&& sink) const {
    const size_t k = key_cols_.size();
    if (k == 0 || row_ids_.empty()) {
      for (size_t i = begin; i < end; ++i) {
        sink(i, ProbeGather([&](size_t) { return Value{0}; }));
      }
      return;
    }
    const Value* pcols[kMaxBatchKey];
    if (k <= kMaxBatchKey) {
      for (size_t j = 0; j < k; ++j) pcols[j] = src.Column(probe_cols[j]);
    }
    if (k == 1) {
      ProbeRowsCore<1>(pcols, begin, end, sink);
    } else if (k == 2) {
      ProbeRowsCore<2>(pcols, begin, end, sink);
    } else if (k <= kMaxBatchKey) {
      ProbeRowsCore<0>(pcols, begin, end, sink);
    } else {
      for (size_t i = begin; i < end; ++i) sink(i, LookupAt(src, i, probe_cols));
    }
  }

  /// Batched probe returning only the total number of matching rows —
  /// the semijoin/bench kernel shape. Runtime-dispatched: an AVX2 build
  /// (32-tag compares + 4-lane vector hashing) when the CPU has it, else
  /// the portable path (16-tag SSE2 or scalar SWAR under
  /// FGQ_FORCE_SCALAR). All paths return identical counts.
  uint64_t CountProbeRows(const Relation& src,
                          const std::vector<size_t>& probe_cols, size_t begin,
                          size_t end) const;

  /// Batched probe over a *gathered* row-id list (the fgq::vm fold's
  /// parent-to-child lookups): keys come from pre-resolved probe column
  /// base pointers at `rows[0..n)`, hashed 8 ahead with tag-group
  /// prefetch so the dependent-miss chain of one-at-a-time probing becomes
  /// 8 independent ones. Calls `sink(i, hit)` for every i with the
  /// matching GroupHit, so per-group payloads can live in a flat array
  /// indexed by group id. K as in LookupColsFixed.
  template <size_t K, typename Sink>
  __attribute__((always_inline)) void ProbeGathered(
      const Value* const* pcol_ptrs, const uint32_t* rows, size_t n,
      Sink&& sink) const {
    const size_t k = K == 0 ? key_cols_.size() : K;
    if (k == 0 || row_ids_.empty()) {
      // One group (id 0) holding every row, or none.
      for (size_t i = 0; i < n; ++i) {
        sink(i, GroupHit{0, static_cast<uint32_t>(row_ids_.size())});
      }
      return;
    }
    constexpr size_t kBatch = 8;
    uint64_t hs[kBatch];
    for (size_t i = 0; i < n; i += kBatch) {
      const size_t m = std::min(kBatch, n - i);
      for (size_t j = 0; j < m; ++j) {
        uint64_t h = kKeySeed;
        for (size_t c = 0; c < k; ++c) {
          h = HashCombine(h, static_cast<uint64_t>(pcol_ptrs[c][rows[i + j]]));
        }
        hs[j] = h;
        PrefetchProbe(h);
      }
      for (size_t j = 0; j < m; ++j) {
        const size_t r = rows[i + j];
        sink(i + j,
             FindGroup<K>(hs[j], [&](size_t c) { return pcol_ptrs[c][r]; }));
      }
    }
  }

  bool ContainsKey(const Tuple& key) const { return !Lookup(key).empty(); }

  /// True when `live` distinct single-column keys spanning `range` values
  /// fill it densely enough for a flat per-value table (dense_cnt_, and
  /// JoinProject's run-offset table): always up to 64K values; beyond
  /// that, only when at least 1-in-16 of the range is occupied, capped at
  /// 1M entries (4 MiB of uint32_t).
  static bool DenseKeyRange(uint64_t range, uint64_t live) {
    constexpr uint64_t kDenseSmallRange = uint64_t{1} << 16;
    constexpr uint64_t kDenseMaxRange = uint64_t{1} << 20;
    constexpr uint64_t kDenseSparsity = 16;
    if (range == 0 || range > kDenseMaxRange) return false;
    return range <= kDenseSmallRange || range <= live * kDenseSparsity;
  }

  /// Number of distinct keys; cached at build time, O(1).
  size_t NumKeys() const { return num_keys_; }
  /// Number of groups (ids 0..NumGroups()-1); above NumKeys() only when a
  /// delta build left deletion-emptied groups behind.
  size_t NumGroups() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  const std::vector<size_t>& key_cols() const { return key_cols_; }

  /// Heap footprint of the built arrays, in bytes (the borrowed relation
  /// is not counted). Feeds the `index_bytes` trace counter.
  size_t MemoryBytes() const {
    return tags_.capacity() * sizeof(uint8_t) +
           slot_group_.capacity() * sizeof(uint32_t) +
           group_hash_.capacity() * sizeof(uint64_t) +
           group_meta_.capacity() * sizeof(GroupMeta) +
           dense_cnt_.capacity() * sizeof(uint32_t) +
           offsets_.capacity() * sizeof(uint32_t) +
           row_ids_.capacity() * sizeof(uint32_t) +
           shards_.capacity() * sizeof(ShardMeta);
  }

  /// Raw layout accessors, used by the determinism tests (serial and
  /// parallel builds — and every SIMD path — must produce bit-identical
  /// arrays).
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& row_ids() const { return row_ids_; }
  const std::vector<uint32_t>& slots() const { return slot_group_; }
  const std::vector<uint8_t>& tags() const { return tags_; }

 private:
  friend struct HashIndexTestPeer;
  friend uint64_t CountProbeRowsPortable(const HashIndex& idx,
                                         const Value* const* pcols, size_t k,
                                         size_t begin, size_t end);
  friend uint64_t CountProbeRowsAvx2(const HashIndex& idx,
                                     const Value* const* pcols, size_t k,
                                     size_t begin, size_t end);

  HashIndex() = default;  // Empty shell, filled by DeltaBuild.

  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  /// Largest key arity the batched kernels specialize for.
  static constexpr size_t kMaxBatchKey = 8;

  /// Slot region of one hash shard inside tags_ / slot_group_. Capacities
  /// are powers of two >= kTagGroupWidth, and slot_base is a multiple of
  /// kTagGroupWidth, so tag groups never straddle shard regions.
  struct ShardMeta {
    uint32_t slot_base = 0;
    uint32_t slot_mask = 0;   // Shard capacity - 1 (capacity is a power of 2).
    uint32_t group_base = 0;  // First global group id of the shard.
  };

  /// `ctx` is null for a serial build; `trace` receives the build-path
  /// counters.
  void Build(const Relation& rel, const ExecContext* ctx,
             TraceContext* trace);
  /// The run build (see the file comment): `rel` is sorted() and keyed on
  /// a leading column prefix. `ctx` as in Build.
  void BuildFromRuns(const Relation& rel, const ExecContext* ctx);
  /// Fills group_meta_ from offsets_ / row_ids_ / key column 0. Every
  /// build path ends with this (the arrays it derives from are exactly
  /// the determinism-checked layout, so the meta is deterministic too).
  void RebuildGroupMeta();
  /// Fills dense_cnt_ from group_meta_ when the single key column's
  /// distinct values densely cover their range (see the member comment).
  void BuildDenseCount();

  /// Small-relation build (below the sharding cutoff): hash, group, and
  /// scatter fused into two row passes. Kept out of Build so the hot
  /// grouping loop gets its own register allocation, independent of the
  /// staged pipeline's many live ranges.
  void BuildFused(const Relation& rel);

  /// Hashes the key columns of stored row `i` (no materialization).
  uint64_t HashRowKeyAt(size_t i) const {
    uint64_t h = kKeySeed;
    for (const Value* col : key_col_ptr_) {
      h = HashCombine(h, static_cast<uint64_t>(col[i]));
    }
    return h;
  }

  /// Shared probe: `key_at(j)` yields the j-th key value. Returns the CSR
  /// span of the matching group, or an empty span. always_inline: every
  /// caller is a per-tuple probe loop, and the key gather (`key_at`) only
  /// folds into the hash/verify code when this lands in the caller — GCC's
  /// unit-growth budget otherwise outlines it in large translation units.
  /// K > 0 pins the key arity at compile time (must equal
  /// key_cols().size()), fully unrolling the hash and verify loops; K = 0
  /// keeps the runtime arity.
  template <size_t K = 0, typename KeyAt>
  __attribute__((always_inline)) RowSpan ProbeGather(KeyAt&& key_at) const {
    const size_t k = K == 0 ? key_cols_.size() : K;
    if ((K == 0 && key_cols_.empty()) || row_ids_.empty()) {
      // Empty key: one group holding every row (empty when the relation
      // is). The arrays are already in that trivial shape.
      return num_keys_ == 0 ? RowSpan{}
                            : RowSpan{row_ids_.data(), row_ids_.size()};
    }
    uint64_t h = kKeySeed;
    for (size_t j = 0; j < k; ++j) {
      h = HashCombine(h, static_cast<uint64_t>(key_at(j)));
    }
    return ProbeHashed<K>(h, key_at);
  }

  /// Probe with the key hash already computed (batched callers hash ahead
  /// so they can prefetch): the matching group's CSR span, or an empty
  /// span. TagOps as in FindHashed.
  template <size_t K = 0, typename TagOps = simd::AutoTagOps, typename KeyAt>
  __attribute__((always_inline)) RowSpan ProbeHashed(uint64_t h,
                                                     KeyAt&& key_at) const {
    return FindHashed<K, TagOps>(
        h, key_at, [&](uint32_t, uint32_t off, uint32_t cnt) {
          return RowSpan{row_ids_.data() + off, static_cast<size_t>(cnt)};
        });
  }

  /// FindHashed yielding the matching GroupHit.
  template <size_t K = 0, typename KeyAt>
  __attribute__((always_inline)) GroupHit FindGroup(uint64_t h,
                                                    KeyAt&& key_at) const {
    return FindHashed<K>(h, key_at, [](uint32_t gid, uint32_t, uint32_t cnt) {
      return GroupHit{gid, cnt};
    });
  }

  /// The group walk behind every probe: `hit(group id, CSR offset, row
  /// count)` makes the result for the matching group, and a miss returns
  /// it value-initialized. Walks 32-tag groups: match bits in ascending
  /// slot order, stop at the first group containing an empty slot. TagOps
  /// selects the group-compare implementation: the default follows the
  /// runtime dispatch; the -mavx2 kernel TU instantiates simd::Avx2TagOps.
  /// Every TagOps yields the same masks, so results are path-invariant.
  template <size_t K = 0, typename TagOps = simd::AutoTagOps, typename KeyAt,
            typename Hit>
  __attribute__((always_inline)) auto FindHashed(uint64_t h, KeyAt&& key_at,
                                                 Hit&& hit) const
      -> decltype(hit(0u, 0u, 0u)) {
    const size_t k = K == 0 ? key_cols_.size() : K;
    const ShardMeta& m = shards_[h & shard_mask_];
    const uint8_t tag = HashTag(h);
    const size_t group_mask = ((m.slot_mask + 1) >> kTagGroupShift) - 1;
    size_t g = ((h >> shard_bits_) & m.slot_mask) >> kTagGroupShift;
    const uint8_t* tag_base = tags_.data() + m.slot_base;
    const uint32_t* slot_base = slot_group_.data() + m.slot_base;
    for (;;) {
      const uint8_t* tg = tag_base + g * kTagGroupWidth;
      uint32_t match = TagOps::Match(tg, tag);
      while (match != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctz(match));
        match &= match - 1;
        const uint32_t gid = slot_base[g * kTagGroupWidth + b];
        if (k == 1) {
          // Single-column key: the stored group key IS the whole key and
          // a group is a distinct key, so one value compare decides
          // membership exactly — no hash confirm and no representative-
          // row chase. key/offset/count share one 16-byte record, so a
          // hit costs a single dependent cache line after the slot word.
          // Emptied delta groups carry cnt == 0 and never match.
          const GroupMeta& gm = group_meta_[gid];
          if (gm.key0 == key_at(0) && gm.cnt != 0) {
            return hit(gid, gm.off, gm.cnt);
          }
        } else if (group_hash_[gid] == h) {
          const uint32_t off = offsets_[gid];
          const uint32_t cnt = offsets_[gid + 1] - off;
          // Delta-built indexes may carry groups emptied by deletion (the
          // stored tag and hash stay behind); an empty group never matches.
          if (cnt != 0) {
            // Verify against the group's first row (guards 64-bit
            // collisions).
            const uint32_t rep = row_ids_[off];
            bool eq = true;
            for (size_t j = 0; j < k; ++j) {
              if (key_col_ptr_[j][rep] != key_at(j)) {
                eq = false;
                break;
              }
            }
            if (eq) {
              return hit(gid, off, cnt);
            }
          }
        }
      }
      if (TagOps::Empty(tg) != 0) return {};
      g = (g + 1) & group_mask;
    }
  }

  /// Prefetches the tag group and slot words hash `h` probes first.
  __attribute__((always_inline)) void PrefetchProbe(uint64_t h) const {
    const ShardMeta& m = shards_[h & shard_mask_];
    const size_t slot =
        (((h >> shard_bits_) & m.slot_mask) & ~(kTagGroupWidth - 1)) +
        m.slot_base;
    __builtin_prefetch(tags_.data() + slot, 0);
    __builtin_prefetch(slot_group_.data() + slot, 0);
  }

  template <size_t K, typename Sink>
  void ProbeRowsCore(const Value* const* pcols, size_t begin, size_t end,
                     Sink&& sink) const {
    constexpr size_t kBatch = 8;
    const size_t k = K == 0 ? key_cols_.size() : K;
    uint64_t hs[kBatch];
    size_t i = begin;
    // Sorted probe relations repeat keys in runs; the previous row's span
    // is reused after a plain key compare (spans borrow from the index,
    // so the reuse is free and exact).
    size_t prev_row = SIZE_MAX;
    RowSpan prev_span;
    while (i < end) {
      const size_t m = std::min(kBatch, end - i);
      for (size_t j = 0; j < m; ++j) {
        uint64_t h = kKeySeed;
        for (size_t c = 0; c < k; ++c) {
          h = HashCombine(h, static_cast<uint64_t>(pcols[c][i + j]));
        }
        hs[j] = h;
        PrefetchProbe(h);
      }
      for (size_t j = 0; j < m; ++j) {
        const size_t row = i + j;
        bool same = prev_row != SIZE_MAX;
        for (size_t c = 0; same && c < k; ++c) {
          same = pcols[c][row] == pcols[c][prev_row];
        }
        if (!same) {
          prev_span =
              ProbeHashed<K>(hs[j], [&](size_t c) { return pcols[c][row]; });
          prev_row = row;
        }
        sink(row, prev_span);
      }
      i += m;
    }
  }

  static constexpr size_t kTagGroupShift = 5;  // log2(kTagGroupWidth)
  static_assert((size_t{1} << kTagGroupShift) == kTagGroupWidth);

  // Seed of the key hash chain (matches HashSpan's).
  static constexpr uint64_t kKeySeed = 0x51ed270b0a4725a3ULL;

  const Relation* rel_ = nullptr;
  std::vector<size_t> key_cols_;
  std::vector<const Value*> key_col_ptr_;  // rel_'s key columns, cached.
  size_t num_keys_ = 0;

  std::vector<uint8_t> tags_;         // All shard tag regions, concatenated.
  std::vector<uint32_t> slot_group_;  // Group id per slot, parallel to tags_.
  std::vector<uint64_t> group_hash_;  // Per group.
  /// Per-group probe metadata, redundant with offsets_/row_ids_/the key
  /// column but packed so a single-column-key hit resolves with ONE
  /// dependent cache line after the slot word: the key value, row span
  /// offset, and span length live in one 16-byte record. Derived from
  /// the CSR arrays by RebuildGroupMeta at the end of every build
  /// (emptied delta groups get cnt == 0 and never match).
  struct GroupMeta {
    Value key0;
    uint32_t off;
    uint32_t cnt;
  };
  // Pool-allocated: both arrays are rebuilt on every index build and sit
  // above the allocator's mmap threshold, so recycled thread-local blocks
  // save a map/fault/unmap round trip per build.
  std::vector<GroupMeta, PoolAllocator<GroupMeta>> group_meta_;
  /// Dense-domain count table for single-column keys: when the distinct
  /// key values densely fill their [min, max] range (same thresholds as
  /// eval's DenseKeySet), dense_cnt_[v - dense_min_] holds the row count
  /// of key v and CountProbeRows resolves each probe with one array load
  /// instead of a hash-table walk. Empty when the key is multi-column or
  /// the domain is sparse/huge; derived from group_meta_, so it is exactly
  /// as deterministic as the CSR layout. Counts are exact either way —
  /// bit-identity across tiers is untouched.
  std::vector<uint32_t, PoolAllocator<uint32_t>> dense_cnt_;
  Value dense_min_ = 0;
  std::vector<uint32_t> offsets_;     // num groups + 1 entries.
  std::vector<uint32_t> row_ids_;     // One entry per indexed row.
  std::vector<ShardMeta> shards_;
  size_t shard_mask_ = 0;
  unsigned shard_bits_ = 0;
};

}  // namespace fgq

#endif  // FGQ_DB_INDEX_H_
