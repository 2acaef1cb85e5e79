#include "fgq/db/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <optional>
#include <queue>
#include <sstream>

#include "fgq/db/index.h"
#include "fgq/trace/trace.h"
#include "fgq/util/small_sort.h"

namespace fgq {

namespace {

/// Row count below which parallel mutators fall back to the serial path:
/// scheduling a morsel costs more than sorting a few thousand rows.
constexpr size_t kParallelRowCutoff = size_t{1} << 13;

/// Key count below which the packed kernel std::sorts its keys: a radix
/// sort pays a fixed cost per pass to clear and prefix-sum its histogram.
constexpr size_t kRadixMinRows = 512;

/// Widest LSD radix digit: 2^11 counters keep a pass's histogram in L1.
constexpr unsigned kMaxDigitBits = 11;

using KeyVec = std::vector<uint64_t, PoolAllocator<uint64_t>>;

/// How a row packs into one uint64_t key: column c contributes its offset
/// v - min[c] in width[c] bits at shift[c], column 0 most significant.
/// The fields are disjoint and ordered, so unsigned key order is exactly
/// the lexicographic row order, and equal keys are equal rows.
struct KeyLayout {
  std::vector<Value> min;
  std::vector<unsigned> width;
  std::vector<unsigned> shift;
  unsigned bits = 0;  ///< Total key width; 0 when every column is constant.
};

/// Lays out the packed key of the `n` rows (n > 0) of `cols`, or nullopt
/// when the column widths sum past 64 bits.
std::optional<KeyLayout> PlanKeys(const std::vector<const Value*>& cols,
                                  size_t n) {
  KeyLayout k;
  k.min.resize(cols.size());
  k.width.resize(cols.size());
  k.shift.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    Value lo = cols[c][0], hi = cols[c][0];
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, cols[c][i]);
      hi = std::max(hi, cols[c][i]);
    }
    k.min[c] = lo;
    k.width[c] = static_cast<unsigned>(std::bit_width(
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)));
    k.bits += k.width[c];
    if (k.bits > 64) return std::nullopt;
  }
  unsigned shift = k.bits;
  for (size_t c = 0; c < cols.size(); ++c) {
    shift -= k.width[c];
    k.shift[c] = shift;
  }
  return k;
}

/// Writes the packed key of each of the `n` rows of `cols` into `keys`
/// (whose old contents are ignored).
void PackKeys(const std::vector<const Value*>& cols, size_t n,
              const KeyLayout& k, uint64_t* keys) {
  bool stored = false;  // The first field stores; the others OR in.
  for (size_t c = 0; c < cols.size(); ++c) {
    if (k.width[c] == 0) continue;
    const Value* src = cols[c];
    const uint64_t lo = static_cast<uint64_t>(k.min[c]);
    const unsigned sh = k.shift[c];
    if (!stored) {
      for (size_t i = 0; i < n; ++i) {
        keys[i] = (static_cast<uint64_t>(src[i]) - lo) << sh;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        keys[i] |= (static_cast<uint64_t>(src[i]) - lo) << sh;
      }
    }
    stored = true;
  }
  if (!stored) std::fill(keys, keys + n, uint64_t{0});
}

/// Decodes `n` keys into the `n`-row columns `cols`.
void UnpackKeys(const uint64_t* keys, size_t n, const KeyLayout& k,
                const std::vector<Value*>& cols) {
  for (size_t c = 0; c < cols.size(); ++c) {
    Value* dst = cols[c];
    if (k.width[c] == 0) {
      std::fill(dst, dst + n, k.min[c]);
      continue;
    }
    const uint64_t lo = static_cast<uint64_t>(k.min[c]);
    const uint64_t mask =
        k.width[c] == 64 ? ~uint64_t{0} : (uint64_t{1} << k.width[c]) - 1;
    const unsigned sh = k.shift[c];
    for (size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<Value>(lo + ((keys[i] >> sh) & mask));
    }
  }
}

/// Sorts `n` keys whose differing bits all lie below bit `bits`. Small
/// inputs SmallSort in place; larger ones take an LSD radix sort that
/// ping-pongs with `tmp` (n entries). Returns the buffer holding the
/// sorted keys.
uint64_t* SortKeys(uint64_t* keys, uint64_t* tmp, size_t n, unsigned bits) {
  if (n < kRadixMinRows) {
    SmallSort(keys, n, std::less<uint64_t>());
    return keys;
  }
  if (bits == 0) return keys;
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit = (bits + passes - 1) / passes;
  const size_t radix = size_t{1} << digit;
  const uint64_t mask = radix - 1;
  std::vector<size_t> hist(passes * radix, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = keys[i];
    for (unsigned p = 0; p < passes; ++p) {
      ++hist[p * radix + ((key >> (p * digit)) & mask)];
    }
  }
  uint64_t* src = keys;
  uint64_t* dst = tmp;
  for (unsigned p = 0; p < passes; ++p) {
    size_t* h = hist.data() + p * radix;
    const unsigned sh = p * digit;
    // A digit shared by every key leaves the order as it is.
    if (h[(src[0] >> sh) & mask] == n) continue;
    size_t sum = 0;
    for (size_t d = 0; d < radix; ++d) {
      const size_t count = h[d];
      h[d] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src[i];
      dst[h[(key >> sh) & mask]++] = key;
    }
    std::swap(src, dst);
  }
  return src;
}

/// True when `cols` lists all `arity` columns with column cols[0] > 0
/// moved to the front and the others in their present order.
bool MovesOneColumnToFront(const std::vector<size_t>& cols, size_t arity) {
  if (cols.size() != arity || cols[0] == 0 || cols[0] >= arity) return false;
  for (size_t j = 1; j < arity; ++j) {
    if (cols[j] != (j <= cols[0] ? j - 1 : j)) return false;
  }
  return true;
}

/// Capacity an append of `k` rows to `n` gives a column it clones: the
/// geometric growth the vector's own append would apply.
size_t AppendCapacity(size_t n, size_t k) { return n + std::max(n, k); }

}  // namespace

void Relation::ColumnRef::Unshare(size_t min_capacity, TraceContext* trace) {
  if (buf_ == nullptr) {
    buf_ = new Buffer{{1}, ColumnVec()};
    buf_->vec.reserve(min_capacity);
  } else if (shared()) {
    Buffer* clone = new Buffer{{1}, ColumnVec()};
    clone->vec.reserve(std::max(min_capacity, buf_->vec.size()));
    clone->vec.assign(buf_->vec.begin(), buf_->vec.end());
    Release();
    buf_ = clone;
    TraceCounter(trace, "relation_columns_cloned", 1);
  }
  data_ = buf_->vec.data();
}

Value* Relation::OverwriteColumn(size_t c, size_t n) {
  if (cols_[c].shared()) cols_[c] = ColumnRef(ColumnVec(n));
  ColumnVec& col = cols_[c].Private();
  col.resize(n);
  cols_[c].Sync();
  return col.data();
}

void Relation::Add(const Tuple& t) {
  assert(t.size() == arity_);
  AddRow(t.data());
}

void Relation::AddRow(const Value* t) {
  if (arity_ == 0) {
    zero_arity_count_ = 1;
    return;
  }
  const size_t cap = AppendCapacity(num_tuples_, 1);
  for (size_t c = 0; c < arity_; ++c) {
    ColumnRef& col = cols_[c];
    ColumnVec& vec = col.Private(cap);
    const bool grows = vec.size() == vec.capacity();
    vec.push_back(t[c]);
    if (grows) col.Sync();
  }
  ++num_tuples_;
  sorted_ = false;
}

void Relation::AddNullary() {
  assert(arity_ == 0);
  zero_arity_count_ = 1;
}

void Relation::Reserve(size_t num_rows, TraceContext* trace) {
  if (num_rows <= num_tuples_) return;
  for (size_t c = 0; c < arity_; ++c) {
    cols_[c].Private(num_rows, trace).reserve(num_rows);
  }
  SyncColumns();
}

void Relation::AppendRows(const Value* rows, size_t num_rows) {
  if (arity_ == 0) {
    if (num_rows > 0) zero_arity_count_ = 1;
    return;
  }
  const size_t cap = AppendCapacity(num_tuples_, num_rows);
  for (size_t c = 0; c < arity_; ++c) {
    ColumnVec& col = cols_[c].Private(cap);
    col.resize(num_tuples_ + num_rows);
    Value* dst = col.data() + num_tuples_;
    const Value* src = rows + c;
    for (size_t i = 0; i < num_rows; ++i) dst[i] = src[i * arity_];
  }
  SyncColumns();
  num_tuples_ += num_rows;
  sorted_ = false;
}

void Relation::AppendFrom(const Relation& other) {
  AppendPrefixFrom(other, other.NumTuples());
}

void Relation::AppendPrefixFrom(const Relation& other, size_t num_rows) {
  assert(other.arity_ == arity_);
  assert(num_rows <= other.NumTuples());
  if (arity_ == 0) {
    if (num_rows > 0) zero_arity_count_ = 1;
    return;
  }
  if (num_tuples_ == 0 && num_rows == other.num_tuples_) {
    // Everything of `other` into nothing: share its columns.
    cols_ = other.cols_;
  } else {
    const size_t cap = AppendCapacity(num_tuples_, num_rows);
    for (size_t c = 0; c < arity_; ++c) {
      const Value* src = other.cols_[c].data();
      ColumnVec& col = cols_[c].Private(cap);
      col.insert(col.end(), src, src + num_rows);
    }
    SyncColumns();
  }
  num_tuples_ += num_rows;
  sorted_ = false;
}

void Relation::AddRowFrom(const Relation& other, size_t i) {
  assert(other.arity_ == arity_);
  if (arity_ == 0) {
    zero_arity_count_ = 1;
    return;
  }
  const size_t cap = AppendCapacity(num_tuples_, 1);
  for (size_t c = 0; c < arity_; ++c) {
    const Value v = other.cols_[c].data()[i];
    cols_[c].Private(cap).push_back(v);
  }
  SyncColumns();
  ++num_tuples_;
  sorted_ = false;
}

Relation Relation::FromColumns(std::string name, std::vector<ColumnVec> cols,
                               bool sorted) {
  Relation out(std::move(name), cols.size());
  if (cols.empty()) return out;
  const size_t n = cols[0].size();
  for (size_t c = 0; c < cols.size(); ++c) {
    assert(cols[c].size() == n);
    out.cols_[c] = ColumnRef(std::move(cols[c]));
  }
  out.num_tuples_ = n;
  assert(!sorted || out.StrictlyAscending());
  out.sorted_ = sorted;
  return out;
}

bool Relation::StrictlyAscending() const {
  for (size_t i = 1; i < num_tuples_; ++i) {
    size_t c = 0;
    while (c < arity_ && At(i - 1, c) == At(i, c)) ++c;
    if (c == arity_ || At(i - 1, c) > At(i, c)) return false;
  }
  return true;
}

std::vector<Value> Relation::ToRowMajor() const {
  std::vector<Value> out(num_tuples_ * arity_);
  for (size_t c = 0; c < arity_; ++c) {
    const Value* src = cols_[c].data();
    Value* dst = out.data() + c;
    for (size_t i = 0; i < num_tuples_; ++i) dst[i * arity_] = src[i];
  }
  return out;
}

/// Rewrites every column as the gather of its first `keep_n` entries of
/// `order` into a fresh column — the one materialization shared by the
/// comparator sorts.
void Relation::ApplyOrder(const std::vector<uint32_t>& order, size_t keep_n) {
  for (size_t c = 0; c < arity_; ++c) {
    const Value* src = cols_[c].data();
    ColumnVec dst(keep_n);
    for (size_t i = 0; i < keep_n; ++i) dst[i] = src[order[i]];
    cols_[c] = ColumnRef(std::move(dst));
  }
  num_tuples_ = keep_n;
  sorted_ = false;  // Callers that establish canonical order re-set it.
}

void Relation::SortDedup() { SortDedup(ExecContext()); }

void Relation::SortDedup(const ExecContext& ctx) {
  // The bit already means "strictly ascending set": nothing to do.
  if (sorted_) return;
  if (arity_ > 0 && num_tuples_ > 0) {
    TraceCounter(ctx.trace(), "sort_dedup_rows", num_tuples_);
    if (!SortDedupPacked(ctx)) {
      TraceCounter(ctx.trace(), "sort_dedup_fallback_rows", num_tuples_);
      SortDedupByComparator(ctx);
    }
  }
  sorted_ = true;
}

bool Relation::SortDedupPacked(const ExecContext& ctx) {
  const size_t n = num_tuples_;
  std::vector<const Value*> src(arity_);
  for (size_t c = 0; c < arity_; ++c) src[c] = cols_[c].data();
  const std::optional<KeyLayout> layout = PlanKeys(src, n);
  if (!layout.has_value()) return false;
  // The radix sort's ping-pong buffer, sized only when a sort takes it
  // (kRadixMinRows keys or more).
  KeyVec keys(n), tmp;
  PackKeys(src, n, *layout, keys.data());
  uint64_t* sorted = keys.data();
  const Value* c0 = cols_[0].data();
  if (std::is_sorted(c0, c0 + n)) {
    // Column 0 is already grouped (a projection of a sorted relation):
    // the keys are in order across its runs, so sort each run alone, on
    // the bits below column 0's field. Nothing to sort when those bits
    // are all constant.
    TraceCounter(ctx.trace(), "sort_dedup_run_local_rows", n);
    const unsigned low_bits = layout->shift[0];
    for (size_t b = 0; b < n && low_bits > 0;) {
      size_t e = b + 1;
      while (e < n && c0[e] == c0[b]) ++e;
      if (e - b > 1) {
        if (e - b >= kRadixMinRows && tmp.size() < e - b) tmp.resize(e - b);
        const uint64_t* run =
            SortKeys(keys.data() + b, tmp.data(), e - b, low_bits);
        if (run != keys.data() + b) {
          std::copy(run, run + (e - b), keys.data() + b);
        }
      }
      b = e;
    }
  } else {
    if (n >= kRadixMinRows) tmp.resize(n);
    sorted = SortKeys(keys.data(), tmp.data(), n, layout->bits);
  }
  const size_t w = static_cast<size_t>(std::unique(sorted, sorted + n) - sorted);
  std::vector<Value*> dst(arity_);
  for (size_t c = 0; c < arity_; ++c) dst[c] = OverwriteColumn(c, w);
  num_tuples_ = w;
  UnpackKeys(sorted, w, *layout, dst);
  return true;
}

void Relation::SortDedupByComparator(const ExecContext& ctx) {
  const size_t n = num_tuples_;
  auto row_less = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      const Value va = At(a, c), vb = At(b, c);
      if (va != vb) return va < vb;
    }
    return false;
  };
  auto rows_equal = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      if (At(a, c) != At(b, c)) return false;
    }
    return true;
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  ThreadPool* pool = ctx.pool();
  if (pool == nullptr || pool->num_threads() <= 1 || n < kParallelRowCutoff) {
    std::sort(order.begin(), order.end(), row_less);
    // Dedup equal consecutive rows of the sorted order in place.
    size_t w = 1;
    for (size_t i = 1; i < n; ++i) {
      if (!rows_equal(order[i], order[w - 1])) order[w++] = order[i];
    }
    ApplyOrder(order, w);
    return;
  }
  // Morsel-parallel sort: each chunk of the row-index array is sorted by a
  // pool lane, then one dedup pass k-way-merges the sorted runs. The
  // output is the canonical sorted set, identical to the serial result.
  const size_t num_runs =
      std::min<size_t>(pool->num_threads(), (n + kParallelRowCutoff - 1) /
                                                kParallelRowCutoff);
  const size_t run_len = (n + num_runs - 1) / num_runs;
  pool->ParallelFor(num_runs, 1, [&](size_t rb, size_t re) {
    for (size_t r = rb; r < re; ++r) {
      const size_t begin = r * run_len;
      const size_t end = std::min(n, begin + run_len);
      std::sort(order.begin() + begin, order.begin() + end, row_less);
    }
  });

  // K-way merge with dedup into a fresh order array.
  struct RunCursor {
    size_t pos;
    size_t end;
  };
  std::vector<RunCursor> runs;
  for (size_t r = 0; r < num_runs; ++r) {
    const size_t begin = r * run_len;
    const size_t end = std::min(n, begin + run_len);
    if (begin < end) runs.push_back({begin, end});
  }
  auto heap_greater = [&](size_t a, size_t b) {
    // Min-heap on the head rows; ties broken by run index for stability.
    if (row_less(order[runs[a].pos], order[runs[b].pos])) return false;
    if (row_less(order[runs[b].pos], order[runs[a].pos])) return true;
    return a > b;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < runs.size(); ++r) heap.push(r);
  std::vector<uint32_t> merged;
  merged.reserve(n);
  while (!heap.empty()) {
    const size_t r = heap.top();
    heap.pop();
    const uint32_t row = order[runs[r].pos];
    if (merged.empty() || !rows_equal(row, merged.back())) {
      merged.push_back(row);
    }
    if (++runs[r].pos < runs[r].end) heap.push(r);
  }
  ApplyOrder(merged, merged.size());
}

void Relation::SortBy(const std::vector<size_t>& cols) {
  if (arity_ == 0 || num_tuples_ == 0) return;
  const size_t n = num_tuples_;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t c : cols) {
      const Value va = At(a, c), vb = At(b, c);
      if (va != vb) return va < vb;
    }
    return false;
  });
  ApplyOrder(order, n);
}

Relation Relation::Project(const std::vector<size_t>& cols,
                           const std::string& name) const {
  return Project(cols, name, ExecContext());
}

Relation Relation::Project(const std::vector<size_t>& cols,
                           const std::string& name,
                           const ExecContext& ctx) const {
  Relation out(name, cols.size());
  const size_t n = NumTuples();
  if (cols.empty()) {
    if (n > 0) out.AddNullary();
    return out;
  }
  bool prefix = true;
  for (size_t j = 0; j < cols.size(); ++j) prefix = prefix && cols[j] == j;
  out.sorted_ = true;
  if (prefix && sorted_ && cols.size() < arity_) {
    // A prefix of a canonical set is already in order, so its duplicates
    // are adjacent: one pass marks the first row of each, and each output
    // column is a filtered gather of its source column.
    TraceCounter(ctx.trace(), "project_prefix_dedup_rows", n);
    std::vector<uint8_t> keep(n, 0);
    if (n > 0) keep[0] = 1;
    for (size_t j = 0; j < cols.size(); ++j) {
      const Value* src = cols_[j].data();
      for (size_t i = 1; i < n; ++i) keep[i] |= src[i] != src[i - 1];
    }
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) kept += keep[i];
    for (size_t j = 0; j < cols.size(); ++j) {
      const Value* src = cols_[j].data();
      ColumnVec dst;
      dst.reserve(kept);
      for (size_t i = 0; i < n; ++i) {
        if (keep[i]) dst.push_back(src[i]);
      }
      out.cols_[j] = ColumnRef(std::move(dst));
    }
    out.num_tuples_ = kept;
    return out;
  }
  if (sorted_ && n > 0 && MovesOneColumnToFront(cols, arity_) &&
      out.CountingSortFrom(*this, cols, ctx.trace())) {
    return out;
  }
  // Otherwise each output column shares a source column, and all the work
  // is the trailing dedup, which the identity projection of a canonical
  // set does not need.
  for (size_t j = 0; j < cols.size(); ++j) out.cols_[j] = cols_[cols[j]];
  out.num_tuples_ = n;
  out.sorted_ = prefix && sorted_;
  if (!out.sorted_) {
    TraceSpan span(ctx.trace(), "sort_dedup");
    out.SortDedup(ctx);
  }
  return out;
}

bool Relation::CountingSortFrom(const Relation& src,
                                const std::vector<size_t>& cols,
                                TraceContext* trace) {
  const size_t n = src.num_tuples_;
  const Value* key = src.cols_[cols[0]].data();
  const auto [lo, hi] = std::minmax_element(key, key + n);
  const uint64_t range =
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo) + 1;
  // The distinct keys are at most n, so a range too sparse for n keys is
  // too sparse for the real count.
  if (!HashIndex::DenseKeyRange(range, n)) return false;
  const uint64_t base = static_cast<uint64_t>(*lo);
  std::vector<uint32_t> pos(range + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ++pos[static_cast<uint64_t>(key[i]) - base + 1];
  }
  uint64_t live = 0;
  for (uint64_t v = 1; v <= range; ++v) live += pos[v] != 0;
  if (!HashIndex::DenseKeyRange(range, live)) return false;
  for (uint64_t v = 1; v <= range; ++v) pos[v] += pos[v - 1];
  // The stable pass keeps each key's rows in the source's order, which on
  // the remaining columns is lexicographic: the result is canonical, and a
  // permutation of a set has no duplicates to drop.
  std::vector<uint32_t> dest(n);
  for (size_t i = 0; i < n; ++i) {
    dest[i] = pos[static_cast<uint64_t>(key[i]) - base]++;
  }
  for (size_t j = 0; j < cols.size(); ++j) {
    const Value* from = src.cols_[cols[j]].data();
    ColumnVec to(n);
    for (size_t i = 0; i < n; ++i) to[dest[i]] = from[i];
    cols_[j] = ColumnRef(std::move(to));
  }
  num_tuples_ = n;
  sorted_ = true;
  TraceCounter(trace, "project_counting_sort_rows", n);
  return true;
}

void Relation::CompactRows(const std::vector<uint8_t>& keep) {
  assert(keep.size() == NumTuples());
  CompactRows(keep.data());
}

void Relation::CompactRows(const uint8_t* keep) {
  if (arity_ == 0) {
    if (zero_arity_count_ > 0 && !keep[0]) zero_arity_count_ = 0;
    return;
  }
  const size_t n = num_tuples_;
  // Detect runs of survivors once, then stream each column: memmove
  // within a private column, a gather into a fresh one for a shared
  // column (which must not be written). The run list is tiny next to the
  // column data and every byte moved is a contiguous copy.
  struct Run {
    size_t begin, len, dst;
  };
  std::vector<Run> runs;
  size_t w = 0;
  for (size_t i = 0; i < n;) {
    if (!keep[i]) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && keep[j]) ++j;
    runs.push_back({i, j - i, w});
    w += j - i;
    i = j;
  }
  if (w == n) return;  // Nothing died; columns already compact.
  for (size_t c = 0; c < arity_; ++c) {
    if (cols_[c].shared()) {
      const Value* src = cols_[c].data();
      ColumnVec dst(w);
      for (const Run& r : runs) {
        std::memcpy(dst.data() + r.dst, src + r.begin, r.len * sizeof(Value));
      }
      cols_[c] = ColumnRef(std::move(dst));
      continue;
    }
    ColumnVec& col = cols_[c].Private();
    Value* base = col.data();
    for (const Run& r : runs) {
      if (r.dst != r.begin) {
        std::memmove(base + r.dst, base + r.begin, r.len * sizeof(Value));
      }
    }
    col.resize(w);
  }
  num_tuples_ = w;
}

void Relation::Filter(const std::function<bool(TupleView)>& pred) {
  if (arity_ == 0) {
    if (zero_arity_count_ > 0 && !pred(TupleView{nullptr, 0, 0})) {
      zero_arity_count_ = 0;
    }
    return;
  }
  const size_t n = NumTuples();
  std::vector<uint8_t> keep(n);
  for (size_t i = 0; i < n; ++i) keep[i] = pred(Row(i)) ? 1 : 0;
  CompactRows(keep);
}

void Relation::Filter(const std::function<bool(TupleView)>& pred,
                      const ExecContext& ctx) {
  ThreadPool* pool = ctx.pool();
  const size_t n = NumTuples();
  if (pool == nullptr || pool->num_threads() <= 1 || arity_ == 0 ||
      n < kParallelRowCutoff) {
    Filter(pred);
    return;
  }
  // Evaluate the predicate morsel-parallel, then compact serially (the
  // compaction is a straight memmove pass, well under the predicate cost).
  std::vector<uint8_t> keep(n);
  pool->ParallelFor(n, ctx.morsel_size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keep[i] = pred(Row(i)) ? 1 : 0;
    }
  });
  CompactRows(keep);
}

bool Relation::Contains(const Tuple& t) const {
  assert(t.size() == arity_);
  if (arity_ == 0) return zero_arity_count_ > 0;
  const size_t n = NumTuples();
  for (size_t i = 0; i < n; ++i) {
    bool eq = true;
    for (size_t c = 0; c < arity_; ++c) {
      if (At(i, c) != t[c]) {
        eq = false;
        break;
      }
    }
    if (eq) return true;
  }
  return false;
}

Value Relation::MaxValue() const {
  Value m = -1;
  for (const ColumnRef& col : cols_) {
    for (size_t i = 0; i < num_tuples_; ++i) m = std::max(m, col.data()[i]);
  }
  return m;
}

std::string Relation::ToString(size_t limit) const {
  std::ostringstream os;
  os << name_ << "/" << arity_ << " [" << NumTuples() << " tuples]";
  const size_t n = std::min(limit, NumTuples());
  for (size_t i = 0; i < n; ++i) {
    os << "\n  (";
    for (size_t j = 0; j < arity_; ++j) {
      if (j) os << ", ";
      os << Row(i)[j];
    }
    os << ")";
  }
  if (NumTuples() > limit) os << "\n  ...";
  return os.str();
}

}  // namespace fgq
