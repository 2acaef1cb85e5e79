#include "fgq/db/index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "fgq/db/probe_kernels.h"
#include "fgq/trace/trace.h"

namespace fgq {

namespace {

/// Relations below this row count use a single shard; at or above it the
/// table splits into kNumShards hash shards so the grouping and scatter
/// phases can run one lane per shard. The choice is a pure function of the
/// relation size — never of the thread count — so serial and parallel
/// builds produce one layout.
constexpr size_t kShardedBuildCutoff = size_t{1} << 13;
constexpr size_t kNumShards = 64;
constexpr unsigned kNumShardBits = 6;

/// Also the parallel-vs-serial dispatch cutoff: below it a morsel is not
/// worth scheduling.
constexpr size_t kParallelBuildCutoff = kShardedBuildCutoff;

size_t NextPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// Resets a slot table to all-empty. kEmptySlot is all-ones, so this is a
/// plain memset; vector::assign's generic fill is a scalar store loop when
/// the compiler declines to inline it, which dominates small builds (the
/// table is 2x the row count).
void ResetSlots(std::vector<uint32_t>& slots, size_t cap) {
  slots.resize(cap);
  std::memset(slots.data(), 0xff, cap * sizeof(uint32_t));
}

void ResetTags(std::vector<uint8_t>& tags, size_t cap) {
  tags.resize(cap);
  std::memset(tags.data(), kEmptyTag, cap);
}

// always_inline: called from the probe loop of every sharded build; GCC's
// unit-growth budget otherwise outlines it as the translation unit grows,
// costing ~6% on BM_HashIndexBuild.
__attribute__((always_inline)) inline bool RowKeysEqualAt(
    const Value* const* kcols, size_t nkc, uint32_t a, uint32_t b) {
  for (size_t j = 0; j < nkc; ++j) {
    if (kcols[j][a] != kcols[j][b]) return false;
  }
  return true;
}

}  // namespace

HashIndex::HashIndex(const Relation& rel, std::vector<size_t> key_cols)
    : rel_(&rel), key_cols_(std::move(key_cols)) {
  ActiveSimdPath();  // Resolve the probe path before any table exists.
  key_col_ptr_.reserve(key_cols_.size());
  for (size_t c : key_cols_) key_col_ptr_.push_back(rel.Column(c));
  Build(rel, nullptr, nullptr);
}

HashIndex::HashIndex(const Relation& rel, std::vector<size_t> key_cols,
                     const ExecContext& ctx)
    : rel_(&rel), key_cols_(std::move(key_cols)) {
  ActiveSimdPath();
  key_col_ptr_.reserve(key_cols_.size());
  for (size_t c : key_cols_) key_col_ptr_.push_back(rel.Column(c));
  ThreadPool* pool = ctx.pool();
  const bool serial = pool == nullptr || pool->num_threads() <= 1 ||
                      rel.NumTuples() < kParallelBuildCutoff;
  Build(rel, serial ? nullptr : &ctx, ctx.trace());
}

uint64_t HashIndex::CountProbeRows(const Relation& src,
                                   const std::vector<size_t>& probe_cols,
                                   size_t begin, size_t end) const {
  const size_t k = key_cols_.size();
  if (k == 0 || row_ids_.empty() || k > kMaxBatchKey) {
    uint64_t total = 0;
    for (size_t i = begin; i < end; ++i) {
      total += LookupAt(src, i, probe_cols).count;
    }
    return total;
  }
  const Value* pcols[kMaxBatchKey];
  for (size_t j = 0; j < k; ++j) pcols[j] = src.Column(probe_cols[j]);
  if (k == 1 && !dense_cnt_.empty()) {
    // Dense-domain key: one bounds check + one array load per probe.
    const Value* col = pcols[0];
    const uint64_t lo = static_cast<uint64_t>(dense_min_);
    const uint64_t range = dense_cnt_.size();
    const uint32_t* cnt = dense_cnt_.data();
    uint64_t total = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint64_t d = static_cast<uint64_t>(col[i]) - lo;
      if (d < range) total += cnt[d];
    }
    return total;
  }
  if (ActiveSimdPath() == SimdPath::kAvx2) {
    return CountProbeRowsAvx2(*this, pcols, k, begin, end);
  }
  return CountProbeRowsPortable(*this, pcols, k, begin, end);
}

std::unique_ptr<HashIndex> HashIndex::DeltaBuild(const HashIndex& base,
                                                 const Relation& old_rel,
                                                 const Relation& new_rel,
                                                 const Delta& delta) {
  const size_t n_old = old_rel.NumTuples();
  const size_t n_new = new_rel.NumTuples();
  const size_t n_del = delta.deleted_rows.size();
  // Shapes the base layout cannot absorb: refuse and let the caller
  // rebuild. An empty-key or empty-base index is a trivial O(n) build
  // anyway, so the incremental path would buy nothing.
  if (base.key_cols_.empty() || n_old == 0) return nullptr;
  if (old_rel.arity() != new_rel.arity()) return nullptr;
  if (n_new + n_del != n_old + delta.num_inserted) return nullptr;
  for (size_t i = 0; i < n_del; ++i) {
    const uint32_t d = delta.deleted_rows[i];
    if (d >= n_old || (i > 0 && d <= delta.deleted_rows[i - 1])) {
      return nullptr;
    }
  }

  const uint32_t base_ng = static_cast<uint32_t>(base.group_hash_.size());
  const std::vector<size_t>& kc = base.key_cols_;
  const size_t nkc = kc.size();
  // base indexes old_rel, so its cached key column pointers read old rows.
  const Value* const* old_kcols = base.key_col_ptr_.data();

  // The base group holding old row `d`, or kEmptySlot.
  auto find_base_group = [&](uint32_t d) -> uint32_t {
    const GroupHit hit = base.FindGroup(
        base.HashRowKeyAt(d), [&](size_t j) { return old_kcols[j][d]; });
    return hit.count == 0 ? kEmptySlot : hit.id;
  };

  // Per-base-group deletion counts (how many of a group's rows die).
  std::vector<uint32_t> del_count(base_ng, 0);
  for (uint32_t d : delta.deleted_rows) {
    const uint32_t g = find_base_group(d);
    if (g == kEmptySlot) return nullptr;  // Base does not index this row.
    ++del_count[g];
  }

  std::unique_ptr<HashIndex> out(new HashIndex());
  out->rel_ = &new_rel;
  out->key_cols_ = kc;
  out->key_col_ptr_.reserve(nkc);
  for (size_t c : kc) out->key_col_ptr_.push_back(new_rel.Column(c));
  out->shards_ = base.shards_;
  out->shard_mask_ = base.shard_mask_;
  out->shard_bits_ = base.shard_bits_;
  out->tags_ = base.tags_;            // memcpy; new groups insert below.
  out->slot_group_ = base.slot_group_;
  out->group_hash_ = base.group_hash_;
  const Value* const* new_kcols = out->key_col_ptr_.data();

  // Route each inserted row (the new relation's tail) to its group:
  // an existing base group, a group created earlier in this batch, or a
  // fresh group slotted into the copied table. Probing the *updated*
  // copy makes same-key inserts within one batch collapse to one group.
  struct NewGroup {
    uint64_t hash;
    std::vector<uint32_t> rows;  // New-relation row ids, ascending.
  };
  std::vector<NewGroup> new_groups;
  std::unordered_map<uint32_t, std::vector<uint32_t>> ins_rows;  // base g ->
  // Occupied slots per shard, to keep every shard under the fresh-build
  // load-factor bound (<= 1/2).
  std::vector<uint32_t> shard_groups(base.shards_.size(), 0);
  for (size_t s = 0; s + 1 < base.shards_.size(); ++s) {
    shard_groups[s] =
        base.shards_[s + 1].group_base - base.shards_[s].group_base;
  }
  if (!base.shards_.empty()) {
    shard_groups.back() = base_ng - base.shards_.back().group_base;
  }
  for (size_t i = n_new - delta.num_inserted; i < n_new; ++i) {
    const uint64_t h = out->HashRowKeyAt(i);
    const size_t shard = h & base.shard_mask_;
    const ShardMeta& m = base.shards_[shard];
    const uint8_t tag = HashTag(h);
    const size_t group_mask = ((m.slot_mask + 1) >> kTagGroupShift) - 1;
    size_t g = ((h >> base.shard_bits_) & m.slot_mask) >> kTagGroupShift;
    uint8_t* tag_base = out->tags_.data() + m.slot_base;
    uint32_t* slot_base = out->slot_group_.data() + m.slot_base;
    bool routed = false;
    while (!routed) {
      const uint8_t* tg = tag_base + g * kTagGroupWidth;
      uint32_t match = simd::MatchTag32(tg, tag);
      while (match != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctz(match));
        match &= match - 1;
        const uint32_t gid = slot_base[g * kTagGroupWidth + b];
        // Base groups emptied by an earlier delta batch have no
        // representative row; they can never match (a re-inserted key gets
        // a fresh group further along the probe order, which ProbeHashed
        // finds by skipping the empty one the same way).
        const bool probeable =
            gid < base_ng ? base.offsets_[gid + 1] != base.offsets_[gid]
                          : true;
        const uint64_t ghash = gid < base_ng
                                   ? out->group_hash_[gid]
                                   : new_groups[gid - base_ng].hash;
        if (!probeable || ghash != h) continue;
        // Representative row: base groups verify against the old
        // relation (their spans still hold old row ids); batch-new
        // groups against the new one.
        bool eq = true;
        if (gid < base_ng) {
          const uint32_t rep = base.row_ids_[base.offsets_[gid]];
          for (size_t j = 0; j < nkc; ++j) {
            if (old_kcols[j][rep] != new_kcols[j][i]) {
              eq = false;
              break;
            }
          }
        } else {
          const uint32_t rep = new_groups[gid - base_ng].rows.front();
          eq = RowKeysEqualAt(new_kcols, nkc, rep, static_cast<uint32_t>(i));
        }
        if (eq) {
          if (gid < base_ng) {
            ins_rows[gid].push_back(static_cast<uint32_t>(i));
          } else {
            new_groups[gid - base_ng].rows.push_back(
                static_cast<uint32_t>(i));
          }
          routed = true;
          break;
        }
      }
      if (routed) break;
      const uint32_t empty = simd::MatchEmpty32(tg);
      if (empty != 0) {
        // Fresh key: append a group after the base groups and claim the
        // first empty slot in probe order, unless that would overload the
        // shard's fixed table.
        if ((shard_groups[shard] + 1) * 2 > m.slot_mask + 1) return nullptr;
        ++shard_groups[shard];
        const unsigned b = static_cast<unsigned>(__builtin_ctz(empty));
        const uint32_t fresh =
            base_ng + static_cast<uint32_t>(new_groups.size());
        tag_base[g * kTagGroupWidth + b] = tag;
        slot_base[g * kTagGroupWidth + b] = fresh;
        new_groups.push_back(NewGroup{h, {static_cast<uint32_t>(i)}});
        routed = true;
        break;
      }
      g = (g + 1) & group_mask;
    }
  }
  for (const NewGroup& ng : new_groups) out->group_hash_.push_back(ng.hash);

  // Survivor row-id remap: new id = old id - (#deleted before it). Only
  // needed when the batch deletes; the insert-only fast path keeps every
  // surviving id and memcpys whole spans.
  std::vector<uint8_t> is_deleted;
  std::vector<uint32_t> shift;
  if (n_del > 0) {
    is_deleted.assign(n_old, 0);
    for (uint32_t d : delta.deleted_rows) is_deleted[d] = 1;
    shift.resize(n_old);
    uint32_t acc = 0;
    for (size_t i = 0; i < n_old; ++i) {
      shift[i] = acc;
      acc += is_deleted[i];
    }
  }

  // Count pass: per-group new sizes -> CSR offsets.
  const size_t total_groups = base_ng + new_groups.size();
  out->offsets_.resize(total_groups + 1);
  uint32_t acc = 0;
  size_t live_groups = 0;
  for (uint32_t g = 0; g < base_ng; ++g) {
    out->offsets_[g] = acc;
    uint32_t cnt = base.offsets_[g + 1] - base.offsets_[g] - del_count[g];
    auto it = ins_rows.find(g);
    if (it != ins_rows.end()) cnt += static_cast<uint32_t>(it->second.size());
    if (cnt > 0) ++live_groups;
    acc += cnt;
  }
  for (size_t k = 0; k < new_groups.size(); ++k) {
    out->offsets_[base_ng + k] = acc;
    acc += static_cast<uint32_t>(new_groups[k].rows.size());
    ++live_groups;
  }
  out->offsets_[total_groups] = acc;
  if (acc != n_new) return nullptr;  // Delta inconsistent with the base.
  out->num_keys_ = live_groups;

  // Scatter pass: survivors (remapped, order preserved), then the batch's
  // inserts per group (ascending: they sit at the relation tail), then
  // the new groups' rows.
  out->row_ids_.resize(n_new);
  for (uint32_t g = 0; g < base_ng; ++g) {
    uint32_t pos = out->offsets_[g];
    const uint32_t* src = base.row_ids_.data() + base.offsets_[g];
    const uint32_t src_n = base.offsets_[g + 1] - base.offsets_[g];
    if (n_del == 0) {
      std::memcpy(out->row_ids_.data() + pos, src, src_n * sizeof(uint32_t));
      pos += src_n;
    } else {
      for (uint32_t j = 0; j < src_n; ++j) {
        const uint32_t id = src[j];
        if (!is_deleted[id]) out->row_ids_[pos++] = id - shift[id];
      }
    }
    auto it = ins_rows.find(g);
    if (it != ins_rows.end()) {
      for (uint32_t id : it->second) out->row_ids_[pos++] = id;
    }
  }
  for (size_t k = 0; k < new_groups.size(); ++k) {
    uint32_t pos = out->offsets_[base_ng + k];
    for (uint32_t id : new_groups[k].rows) out->row_ids_[pos++] = id;
  }
  out->RebuildGroupMeta();
  return out;
}

void HashIndex::Build(const Relation& rel, const ExecContext* ctx,
                      TraceContext* trace) {
  const size_t n = rel.NumTuples();
  if (n == 0) return;
  if (key_cols_.empty()) {
    // Empty key: one group holding every row; no table needed.
    num_keys_ = 1;
    offsets_ = {0, static_cast<uint32_t>(n)};
    group_hash_ = {kKeySeed};
    row_ids_.resize(n);
    std::iota(row_ids_.begin(), row_ids_.end(), 0u);
    RebuildGroupMeta();
    return;
  }

  const size_t num_shards = n >= kShardedBuildCutoff ? kNumShards : 1;
  shard_bits_ = num_shards == 1 ? 0 : kNumShardBits;
  shard_mask_ = num_shards - 1;

  bool leading = rel.sorted();
  for (size_t j = 0; leading && j < key_cols_.size(); ++j) {
    leading = key_cols_[j] == j;
  }
  if (leading) {
    TraceCounter(trace, "index_run_build_rows", n);
    BuildFromRuns(rel, ctx);
    return;
  }

  if (num_shards == 1) {
    BuildFused(rel);
    return;
  }

  // Phase 0: hash every row's key columns straight out of the columnar
  // store (morsel-parallel with a pool; the result is position-determined).
  std::vector<uint64_t> hashes(n);
  auto hash_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hashes[i] = HashRowKeyAt(i);
    }
  };
  if (ctx != nullptr) {
    ctx->pool()->ParallelFor(n, ctx->morsel_size(), hash_range);
  } else {
    hash_range(0, n);
  }

  // Phase 1: per-shard row lists in ascending row order. A parallel build
  // scatters into per-(morsel, shard) buckets and concatenates them in
  // morsel order, which yields exactly the serial single-pass sequences.
  std::vector<std::vector<uint32_t>> shard_rows(num_shards);
  if (ctx == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      shard_rows[hashes[i] & shard_mask_].push_back(static_cast<uint32_t>(i));
    }
  } else {
    const size_t grain = ctx->morsel_size();
    const size_t num_chunks = (n + grain - 1) / grain;
    std::vector<std::vector<std::vector<uint32_t>>> scatter(
        num_chunks, std::vector<std::vector<uint32_t>>(num_shards));
    ctx->pool()->ParallelFor(n, grain, [&](size_t begin, size_t end) {
      std::vector<std::vector<uint32_t>>& buckets = scatter[begin / grain];
      for (size_t i = begin; i < end; ++i) {
        buckets[hashes[i] & shard_mask_].push_back(static_cast<uint32_t>(i));
      }
    });
    ctx->pool()->ParallelFor(num_shards, 1, [&](size_t sb, size_t se) {
      for (size_t s = sb; s < se; ++s) {
        size_t total = 0;
        for (size_t c = 0; c < num_chunks; ++c) total += scatter[c][s].size();
        shard_rows[s].reserve(total);
        for (size_t c = 0; c < num_chunks; ++c) {
          shard_rows[s].insert(shard_rows[s].end(), scatter[c][s].begin(),
                               scatter[c][s].end());
        }
      }
    });
  }

  // Phase 2: per-shard tag-table grouping plus a local two-pass CSR
  // (count, then scatter via per-group cursors). One lane per shard; the
  // layout depends only on each shard's row sequence.
  struct ShardBuild {
    std::vector<uint8_t> tags;       // Tag byte per slot, kEmptyTag = free.
    std::vector<uint32_t> slots;     // Local group ids, parallel to tags.
    std::vector<uint64_t> ghash;     // Key hash per local group.
    std::vector<uint32_t> goffsets;  // Local CSR offsets (+ sentinel).
    std::vector<uint32_t> rows;      // Local CSR payload (global row ids).
  };
  std::vector<ShardBuild> built(num_shards);
  const Value* const* kcols = key_col_ptr_.data();
  const size_t nkc = key_cols_.size();
  auto build_shard = [&](size_t s) {
    const std::vector<uint32_t>& rows = shard_rows[s];
    ShardBuild& sb = built[s];
    const size_t cap =
        NextPow2(std::max<size_t>(kTagGroupWidth, rows.size() * 2));
    const size_t mask = cap - 1;
    const size_t gmask = (cap >> kTagGroupShift) - 1;
    ResetTags(sb.tags, cap);
    ResetSlots(sb.slots, cap);
    std::vector<uint32_t> rep;    // First row of each local group.
    std::vector<uint32_t> count;  // Rows per local group.
    std::vector<uint32_t> row_group(rows.size());
    // The tag table outgrows L2 on large shards, making the probe a full
    // cache miss per row; prefetching the home group a few rows ahead (the
    // hashes are already materialized) hides most of that latency.
    constexpr size_t kPrefetchDist = 8;
    uint32_t prev_group = 0;
    bool have_prev = false;
    for (size_t k = 0; k < rows.size(); ++k) {
      if (k + kPrefetchDist < rows.size()) {
        const uint64_t ph = hashes[rows[k + kPrefetchDist]];
        const size_t pslot = ((ph >> shard_bits_) & mask) &
                             ~static_cast<size_t>(kTagGroupWidth - 1);
        __builtin_prefetch(&sb.tags[pslot], 1);
        __builtin_prefetch(&sb.slots[pslot], 1);
      }
      const uint32_t i = rows[k];
      const uint64_t h = hashes[i];
      // Equal key to the previous row of this shard ⇒ same group, no probe
      // (equal keys always land in one shard, and SortDedup'ed input makes
      // them adjacent there).
      if (have_prev && h == hashes[rows[k - 1]] &&
          RowKeysEqualAt(kcols, nkc, rows[k - 1], i)) {
        ++count[prev_group];
        row_group[k] = prev_group;
        continue;
      }
      have_prev = true;
      const uint8_t tag = HashTag(h);
      size_t g = ((h >> shard_bits_) & mask) >> kTagGroupShift;
      for (;;) {
        const uint8_t* tg = sb.tags.data() + g * kTagGroupWidth;
        uint32_t match = simd::MatchTag32(tg, tag);
        bool placed = false;
        while (match != 0) {
          const unsigned b = static_cast<unsigned>(__builtin_ctz(match));
          match &= match - 1;
          const uint32_t gid = sb.slots[g * kTagGroupWidth + b];
          if (sb.ghash[gid] == h && RowKeysEqualAt(kcols, nkc, rep[gid], i)) {
            ++count[gid];
            row_group[k] = gid;
            prev_group = gid;
            placed = true;
            break;
          }
        }
        if (placed) break;
        const uint32_t empty = simd::MatchEmpty32(tg);
        if (empty != 0) {
          const unsigned b = static_cast<unsigned>(__builtin_ctz(empty));
          const uint32_t fresh = static_cast<uint32_t>(sb.ghash.size());
          sb.tags[g * kTagGroupWidth + b] = tag;
          sb.slots[g * kTagGroupWidth + b] = fresh;
          sb.ghash.push_back(h);
          rep.push_back(i);
          count.push_back(1);
          row_group[k] = fresh;
          prev_group = fresh;
          break;
        }
        g = (g + 1) & gmask;
      }
    }
    const size_t ng = sb.ghash.size();
    sb.goffsets.resize(ng + 1);
    uint32_t acc = 0;
    for (size_t g = 0; g < ng; ++g) {
      sb.goffsets[g] = acc;
      acc += count[g];
    }
    sb.goffsets[ng] = acc;
    std::vector<uint32_t> cursor(sb.goffsets.begin(), sb.goffsets.end() - 1);
    sb.rows.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      sb.rows[cursor[row_group[k]]++] = rows[k];
    }
  };
  auto for_each_shard = [&](auto&& fn) {
    if (ctx != nullptr && num_shards > 1) {
      ctx->pool()->ParallelFor(num_shards, 1, [&](size_t b, size_t e) {
        for (size_t s = b; s < e; ++s) fn(s);
      });
    } else {
      for (size_t s = 0; s < num_shards; ++s) fn(s);
    }
  };
  for_each_shard(build_shard);

  // Phase 3: stitch the shard-local arrays into the global flat layout.
  shards_.resize(num_shards);
  size_t total_groups = 0, total_rows = 0, total_slots = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s].group_base = static_cast<uint32_t>(total_groups);
    shards_[s].slot_base = static_cast<uint32_t>(total_slots);
    shards_[s].slot_mask = static_cast<uint32_t>(built[s].slots.size() - 1);
    total_groups += built[s].ghash.size();
    total_rows += built[s].rows.size();
    total_slots += built[s].slots.size();
  }
  assert(total_rows == n);
  (void)total_rows;
  num_keys_ = total_groups;
  offsets_.resize(total_groups + 1);
  offsets_[total_groups] = static_cast<uint32_t>(n);
  group_hash_.resize(total_groups);
  row_ids_.resize(n);
  tags_.resize(total_slots);
  slot_group_.resize(total_slots);
  // Row region of each shard: groups are shard-major, so the row base of a
  // shard is the running row total ahead of it.
  std::vector<uint32_t> row_base(num_shards);
  uint32_t rb = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    row_base[s] = rb;
    rb += static_cast<uint32_t>(built[s].rows.size());
  }
  for_each_shard([&](size_t s) {
    const ShardBuild& sb = built[s];
    const uint32_t gb = shards_[s].group_base;
    const uint32_t rbase = row_base[s];
    for (size_t g = 0; g < sb.ghash.size(); ++g) {
      offsets_[gb + g] = rbase + sb.goffsets[g];
      group_hash_[gb + g] = sb.ghash[g];
    }
    std::copy(sb.rows.begin(), sb.rows.end(), row_ids_.begin() + rbase);
    const uint32_t slot_base = shards_[s].slot_base;
    std::memcpy(tags_.data() + slot_base, sb.tags.data(), sb.tags.size());
    for (size_t t = 0; t < sb.slots.size(); ++t) {
      slot_group_[slot_base + t] =
          sb.slots[t] == kEmptySlot ? kEmptySlot : gb + sb.slots[t];
    }
  });
  RebuildGroupMeta();
}

void HashIndex::BuildFromRuns(const Relation& rel, const ExecContext* ctx) {
  const size_t n = rel.NumTuples();
  const size_t num_shards = shard_mask_ + 1;
  const Value* const* kcols = key_col_ptr_.data();
  const size_t nkc = key_cols_.size();
  // Sorted on its key prefix, the relation holds each distinct key as one
  // run of rows: run g is rows [starts[g], starts[g + 1]).
  std::vector<uint32_t> starts{0};
  for (size_t i = 1; i < n; ++i) {
    if (!RowKeysEqualAt(kcols, nkc, static_cast<uint32_t>(i - 1),
                        static_cast<uint32_t>(i))) {
      starts.push_back(static_cast<uint32_t>(i));
    }
  }
  const size_t ng = starts.size();
  starts.push_back(static_cast<uint32_t>(n));
  std::vector<uint64_t> run_hash(ng);
  auto hash_runs = [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) run_hash[g] = HashRowKeyAt(starts[g]);
  };
  if (ctx != nullptr) {
    ctx->pool()->ParallelFor(ng, ctx->morsel_size(), hash_runs);
  } else {
    hash_runs(0, ng);
  }

  // Each shard's runs in run order, which is the order the hashing
  // builder meets their keys in (rows enter a shard in ascending order).
  // A shard's table is sized on its row count and its groups and rows
  // follow the earlier shards', exactly as in that builder.
  std::vector<uint32_t> shard_runs(ng);
  std::vector<uint32_t> run_base(num_shards + 1, 0);
  std::vector<uint32_t> shard_rows(num_shards, 0);
  for (size_t g = 0; g < ng; ++g) {
    const size_t s = run_hash[g] & shard_mask_;
    ++run_base[s + 1];
    shard_rows[s] += starts[g + 1] - starts[g];
  }
  for (size_t s = 0; s < num_shards; ++s) run_base[s + 1] += run_base[s];
  {
    std::vector<uint32_t> cursor(run_base.begin(), run_base.end() - 1);
    for (size_t g = 0; g < ng; ++g) {
      shard_runs[cursor[run_hash[g] & shard_mask_]++] =
          static_cast<uint32_t>(g);
    }
  }
  shards_.resize(num_shards);
  std::vector<uint32_t> row_base(num_shards);
  size_t total_slots = 0;
  uint32_t rows_before = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t cap =
        NextPow2(std::max<size_t>(kTagGroupWidth, size_t{shard_rows[s]} * 2));
    shards_[s] = ShardMeta{static_cast<uint32_t>(total_slots),
                           static_cast<uint32_t>(cap - 1), run_base[s]};
    row_base[s] = rows_before;
    total_slots += cap;
    rows_before += shard_rows[s];
  }
  ResetTags(tags_, total_slots);
  ResetSlots(slot_group_, total_slots);
  group_hash_.resize(ng);
  offsets_.resize(ng + 1);
  offsets_[ng] = static_cast<uint32_t>(n);
  row_ids_.resize(n);
  group_meta_.resize(ng);
  auto fill_shard = [&](size_t s) {
    const ShardMeta& m = shards_[s];
    const size_t gmask = ((m.slot_mask + 1) >> kTagGroupShift) - 1;
    uint8_t* tags = tags_.data() + m.slot_base;
    uint32_t* slots = slot_group_.data() + m.slot_base;
    uint32_t off = row_base[s];
    for (uint32_t gid = run_base[s]; gid < run_base[s + 1]; ++gid) {
      const uint32_t run = shard_runs[gid];
      const uint64_t h = run_hash[run];
      const uint32_t lo = starts[run];
      const uint32_t cnt = starts[run + 1] - lo;
      group_hash_[gid] = h;
      offsets_[gid] = off;
      group_meta_[gid] = GroupMeta{kcols[0][lo], off, cnt};
      std::iota(row_ids_.begin() + off, row_ids_.begin() + off + cnt, lo);
      off += cnt;
      // A distinct key matches no group already in the table, so its
      // insert is the first empty slot in probe order.
      size_t g = ((h >> shard_bits_) & m.slot_mask) >> kTagGroupShift;
      uint32_t empty;
      while ((empty = simd::MatchEmpty32(tags + g * kTagGroupWidth)) == 0) {
        g = (g + 1) & gmask;
      }
      const size_t slot =
          g * kTagGroupWidth + static_cast<unsigned>(__builtin_ctz(empty));
      tags[slot] = HashTag(h);
      slots[slot] = gid;
    }
  };
  if (ctx != nullptr && num_shards > 1) {
    ctx->pool()->ParallelFor(num_shards, 1, [&](size_t b, size_t e) {
      for (size_t s = b; s < e; ++s) fill_shard(s);
    });
  } else {
    for (size_t s = 0; s < num_shards; ++s) fill_shard(s);
  }
  num_keys_ = ng;
  BuildDenseCount();
}

void HashIndex::BuildFused(const Relation& rel) {
  // Small build (always serial): hash, group, and scatter fused into two
  // row passes, writing the flat arrays directly. The staged pipeline in
  // Build exists for the sharded regime; at this size its intermediate
  // hash and shard-list arrays are most of the cost.
  const size_t n = rel.NumTuples();
  const size_t cap = NextPow2(std::max<size_t>(kTagGroupWidth, n * 2));
  const size_t mask = cap - 1;
  const size_t gmask = (cap >> kTagGroupShift) - 1;
  ResetTags(tags_, cap);
  ResetSlots(slot_group_, cap);
  std::vector<uint32_t> rep;    // First row of each group.
  std::vector<uint32_t> count;  // Rows per group.
  std::vector<uint32_t> row_group(n);
  // Locals for everything the hot loop reads: the push_backs below keep
  // the compiler from hoisting member/vector loads itself.
  const Value* const* kcols = key_col_ptr_.data();
  const size_t nkc = key_cols_.size();
  uint8_t* tags = tags_.data();
  uint32_t* slots = slot_group_.data();
  bool have_prev = false;
  uint32_t prev_row = 0;
  uint32_t prev_group = 0;
  for (size_t i = 0; i < n; ++i) {
    // Equal key to the previous row ⇒ same group, no hash or probe. Pure
    // short-circuit (valid for any row order), but SortDedup'ed input
    // makes equal keys adjacent, collapsing duplicate-heavy builds to one
    // probe per distinct key.
    if (have_prev &&
        RowKeysEqualAt(kcols, nkc, prev_row, static_cast<uint32_t>(i))) {
      ++count[prev_group];
      row_group[i] = prev_group;
      prev_row = static_cast<uint32_t>(i);
      continue;
    }
    have_prev = true;
    prev_row = static_cast<uint32_t>(i);
    uint64_t h = kKeySeed;
    for (size_t j = 0; j < nkc; ++j) {
      h = HashCombine(h, static_cast<uint64_t>(kcols[j][i]));
    }
    const uint8_t tag = HashTag(h);
    size_t g = (h & mask) >> kTagGroupShift;  // shard_bits_ == 0: same
                                              // group as ProbeHashed.
    for (;;) {
      const uint8_t* tg = tags + g * kTagGroupWidth;
      uint32_t match = simd::MatchTag32(tg, tag);
      bool placed = false;
      while (match != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctz(match));
        match &= match - 1;
        const uint32_t gid = slots[g * kTagGroupWidth + b];
        if (group_hash_[gid] == h &&
            RowKeysEqualAt(kcols, nkc, rep[gid], static_cast<uint32_t>(i))) {
          ++count[gid];
          row_group[i] = gid;
          prev_group = gid;
          placed = true;
          break;
        }
      }
      if (placed) break;
      const uint32_t empty = simd::MatchEmpty32(tg);
      if (empty != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctz(empty));
        const uint32_t fresh = static_cast<uint32_t>(group_hash_.size());
        tags[g * kTagGroupWidth + b] = tag;
        slots[g * kTagGroupWidth + b] = fresh;
        group_hash_.push_back(h);
        rep.push_back(static_cast<uint32_t>(i));
        count.push_back(1);
        row_group[i] = fresh;
        prev_group = fresh;
        break;
      }
      g = (g + 1) & gmask;
    }
  }
  const size_t ng = group_hash_.size();
  offsets_.resize(ng + 1);
  // The grouping loop left everything the probe metadata needs in rep /
  // count, so the fused path fills it inline (all-sequential reads)
  // instead of re-deriving it from the CSR arrays afterwards.
  group_meta_.resize(ng);
  uint32_t acc = 0;
  for (size_t g = 0; g < ng; ++g) {
    offsets_[g] = acc;
    group_meta_[g] = GroupMeta{kcols[0][rep[g]], acc, count[g]};
    acc += count[g];
  }
  offsets_[ng] = acc;
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  row_ids_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    row_ids_[cursor[row_group[i]]++] = static_cast<uint32_t>(i);
  }
  num_keys_ = ng;
  shards_ = {ShardMeta{0, static_cast<uint32_t>(mask), 0}};
  BuildDenseCount();
}

void HashIndex::RebuildGroupMeta() {
  const size_t ng = offsets_.empty() ? 0 : offsets_.size() - 1;
  group_meta_.resize(ng);
  const Value* k0 = key_col_ptr_.empty() ? nullptr : key_col_ptr_[0];
  for (size_t g = 0; g < ng; ++g) {
    const uint32_t off = offsets_[g];
    const uint32_t cnt = offsets_[g + 1] - off;
    // An emptied delta group has no rows to read a key from; cnt == 0
    // already makes it unmatchable, so any key value is fine.
    group_meta_[g] =
        GroupMeta{cnt != 0 && k0 != nullptr ? k0[row_ids_[off]] : 0, off, cnt};
  }

  BuildDenseCount();
}

void HashIndex::BuildDenseCount() {
  // Dense-domain count table (see the member comment): derived from the
  // group metadata, so every build path — fused, sharded, and delta —
  // gets it for free in one extra pass over the groups.
  dense_cnt_.clear();
  const size_t ng = group_meta_.size();
  if (key_cols_.size() != 1 || ng == 0) return;
  Value mn = 0;
  Value mx = 0;
  size_t live = 0;
  for (const GroupMeta& gm : group_meta_) {
    if (gm.cnt == 0) continue;
    if (live == 0 || gm.key0 < mn) mn = gm.key0;
    if (live == 0 || gm.key0 > mx) mx = gm.key0;
    ++live;
  }
  if (live == 0) return;
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn) + 1;
  if (!DenseKeyRange(range, live)) return;  // range == 0: wrapped.
  dense_min_ = mn;
  dense_cnt_.assign(range, 0);
  for (const GroupMeta& gm : group_meta_) {
    if (gm.cnt == 0) continue;
    dense_cnt_[static_cast<uint64_t>(gm.key0) -
               static_cast<uint64_t>(mn)] = gm.cnt;
  }
}

}  // namespace fgq
