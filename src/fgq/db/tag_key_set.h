#ifndef FGQ_DB_TAG_KEY_SET_H_
#define FGQ_DB_TAG_KEY_SET_H_

#include <cstdint>
#include <vector>

#include "fgq/db/relation.h"
#include "fgq/util/hash.h"
#include "fgq/util/pool_alloc.h"
#include "fgq/util/simd.h"

/// \file tag_key_set.h
/// Tag-probed membership set over the key columns of a relation's rows —
/// the semijoin-sweep counterpart of HashIndex. Where the index answers
/// "which rows", this only answers "is the key present", so a slot is one
/// tag byte plus one representative row id (5 bytes) instead of the
/// index's group/hash/CSR machinery. No key hash is stored: a tag hit is
/// verified by comparing the probe key against the representative row's
/// key columns straight out of the columnar store, and a false tag match
/// just moves to the next match bit.
///
/// Membership is a pure set property (independent of insertion order), and
/// insertion claims the first matching-or-empty tag bit in probe order
/// with path-invariant match masks, so both the built layout and every
/// answer are bit-identical across the scalar/SSE2/AVX2 paths and across
/// thread counts.

namespace fgq {

class TagKeySet;

/// Batched mark kernels (defined in the probe-kernel translation units;
/// probe_kernels.h declares them for callers). Each clears the alive byte
/// of every row in [begin, end) whose key — read from the resolved target
/// column pointers — is absent from the set, and returns how many rows of
/// the range are alive afterwards (so callers never rescan the bitmap).
/// The two produce identical bitmaps; they differ only in tag-compare
/// width and hash throughput.
uint64_t TagMarkMissesPortable(const TagKeySet& set, const Value* const* tcols,
                               uint8_t* alive, size_t begin, size_t end);
uint64_t TagMarkMissesAvx2(const TagKeySet& set, const Value* const* tcols,
                           uint8_t* alive, size_t begin, size_t end);

class TagKeySet {
 public:
  /// Builds over the rows of `rel` whose byte in `alive` is nonzero
  /// (`alive == nullptr` means every row; otherwise NumTuples() bytes),
  /// keyed by `cols`.
  TagKeySet(const Relation& rel, const std::vector<size_t>& cols,
            const uint8_t* alive);

  /// Clears the alive byte of every target row in [begin, end) whose key
  /// has no counterpart in the set, returning the number of rows of the
  /// range left alive. `tcols` are the resolved target column pointers,
  /// one per key column (Relation::Column, hoisted by the caller).
  /// Runtime-dispatched to the AVX2 or portable kernel; safe to call
  /// concurrently on disjoint ranges (sum the per-range returns).
  uint64_t MarkMisses(const Value* const* tcols, uint8_t* alive, size_t begin,
                      size_t end) const;

  size_t num_cols() const { return src_cols_.size(); }

 private:
  friend uint64_t TagMarkMissesPortable(const TagKeySet& set,
                                        const Value* const* tcols,
                                        uint8_t* alive, size_t begin,
                                        size_t end);
  friend uint64_t TagMarkMissesAvx2(const TagKeySet& set,
                                    const Value* const* tcols, uint8_t* alive,
                                    size_t begin, size_t end);

  /// Probe with the key hash precomputed (batched callers hash ahead so
  /// they can prefetch). Same group walk as HashIndex::ProbeHashed. K
  /// pins the key arity at compile time (kernels dispatch on the common
  /// arities); K = 0 keeps it runtime.
  template <typename TagOps = simd::AutoTagOps, size_t K = 0, typename KeyAt>
  __attribute__((always_inline)) bool ContainsHashed(uint64_t h,
                                                     KeyAt&& key_at) const {
    const size_t k = K == 0 ? src_cols_.size() : K;
    const uint8_t tag = HashTag(h);
    const size_t gmask = ((mask_ + 1) >> kTagGroupShift) - 1;
    size_t g = (h & mask_) >> kTagGroupShift;
    const uint8_t* tag_base = tags_.data();
    const uint32_t* rep_base = rep_.data();
    for (;;) {
      const uint8_t* tg = tag_base + g * kTagGroupWidth;
      uint32_t match = TagOps::Match(tg, tag);
      while (match != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctz(match));
        match &= match - 1;
        const uint32_t r = rep_base[g * kTagGroupWidth + b];
        bool eq = true;
        for (size_t j = 0; j < k; ++j) {
          if (src_col_ptr_[j][r] != key_at(j)) {
            eq = false;
            break;
          }
        }
        if (eq) return true;
      }
      if (TagOps::Empty(tg) != 0) return false;
      g = (g + 1) & gmask;
    }
  }

  /// Pulls the home tag group and rep words of hash `h` toward the cache.
  __attribute__((always_inline)) void PrefetchKey(uint64_t h) const {
    const size_t slot = (h & mask_) & ~(kTagGroupWidth - 1);
    __builtin_prefetch(tags_.data() + slot, 0);
    __builtin_prefetch(rep_.data() + slot, 0);
  }

  static constexpr size_t kTagGroupShift = 5;  // log2(kTagGroupWidth)
  static_assert((size_t{1} << kTagGroupShift) == kTagGroupWidth);
  /// Seed of the key hash chain — must match HashIndex::kKeySeed so probe
  /// math stays comparable across the data plane.
  static constexpr uint64_t kSeed = 0x51ed270b0a4725a3ULL;

  std::vector<size_t> src_cols_;
  std::vector<const Value*> src_col_ptr_;  // Source key columns, cached.
  // Table arrays are pool-recycled: a semijoin sweep builds and discards
  // one table per tree edge, and these are exactly the allocations that
  // would otherwise bounce through mmap/munmap every edge.
  std::vector<uint8_t, PoolAllocator<uint8_t>> tags_;  // Tag byte per slot.
  std::vector<uint32_t, PoolAllocator<uint32_t>> rep_;  // Rep row per slot.
  size_t mask_ = 0;  // Capacity - 1 (power of two).
};

/// Exact membership set over a single key column whose values densely
/// fill their [min, max] range — one presence bit per value in the range,
/// no hashing, no collisions. Dictionary-encoded ids (the storage layer
/// assigns them densely from 0) and generated fixtures both produce
/// exactly this shape, and the bitmap is then a few KiB of L1-resident
/// state probed with one shift-and-test per row: well under the tag
/// table's hash-probe cost. Build() is an attempt — a range too wide or
/// too sparsely populated is declined, and the caller falls back to
/// TagKeySet. Purely value-based, so results are identical to the hash
/// path's by construction.
class DenseKeySet {
 public:
  /// Attempts to build over `col[0, n)` (rows with a zero `alive` byte are
  /// skipped; `alive == nullptr` means every row). Returns false — leaving
  /// the set unusable — when the value range is too large or too sparse
  /// for a bitmap to pay off.
  bool Build(const Value* col, const uint8_t* alive, size_t n);

  /// Clears the alive byte of every row in [begin, end) whose `tcol` value
  /// is absent from the set; returns the number of rows of the range left
  /// alive. Read-only probes — safe to call concurrently on disjoint
  /// ranges.
  uint64_t MarkMisses(const Value* tcol, uint8_t* alive, size_t begin,
                      size_t end) const;

  /// True if `v` was inserted.
  bool Contains(Value v) const {
    return v >= min_ && v <= max_ &&
           ((bits_[static_cast<uint64_t>(v - min_) >> 6] >>
             (static_cast<uint64_t>(v - min_) & 63)) &
            1) != 0;
  }

 private:
  // Range caps: up to 64 Ki values the bitmap (8 KiB) is accepted
  // unconditionally; beyond that the range must be at least 1/16 dense,
  // and never wider than 4 Mi values (512 KiB of bits).
  static constexpr uint64_t kSmallRange = uint64_t{1} << 16;
  static constexpr uint64_t kMaxRange = uint64_t{1} << 22;
  static constexpr uint64_t kSparsity = 16;

  std::vector<uint64_t, PoolAllocator<uint64_t>> bits_;
  Value min_ = 0;
  Value max_ = -1;  // min_ > max_ encodes the empty set.
};

}  // namespace fgq

#endif  // FGQ_DB_TAG_KEY_SET_H_
