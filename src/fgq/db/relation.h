#ifndef FGQ_DB_RELATION_H_
#define FGQ_DB_RELATION_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fgq/db/value.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/pool_alloc.h"
#include "fgq/util/status.h"

/// \file relation.h
/// Columnar (structure-of-arrays) relation storage.
///
/// A Relation is a named bag of fixed-arity tuples stored column-wise:
/// one contiguous vector per column. All evaluation algorithms treat
/// relations as sets; Relation::SortDedup establishes set semantics in
/// canonical lexicographic order, matching the paper's convention that
/// the input encoding induces a linear order on tuples. It is linear in
/// the paper's RAM model: when the min-subtracted column bit widths sum
/// to at most 64, every row packs into one uint64_t key (column 0 most
/// significant), the keys are LSD-radix-sorted (std::sort below a small
/// fixed row count; only within runs when column 0 is already grouped),
/// and the deduplicated keys decode straight back into the columns. Only
/// rows that do not pack take the O(N log N) comparator index sort. The
/// mutators that dominate hot loops (SortDedup, Filter, Project) have
/// morsel-parallel variants taking an ExecContext; with a serial context
/// they are bit-for-bit identical to the plain overloads.
///
/// Why SoA: the data-plane hot loops — key hashing for index builds and
/// probes, semijoin alive-bitmap marking, survivor compaction — each read
/// a small subset of columns across many rows. Column-wise storage turns
/// those into contiguous streams (vectorizable loads, per-column memmove
/// compaction) instead of strided row-major walks. Code that genuinely
/// needs a row materializes it explicitly (CopyRow / TupleView::ToTuple);
/// there is deliberately no pointer-to-row accessor anymore.
///
/// Ownership: each column is a reference-counted buffer that copies of a
/// relation share and that nobody writes while it is shared, so copying
/// a Relation costs O(arity) count bumps and no column data. Every mutator first makes the columns
/// it writes private to this relation: a column no other relation holds
/// is written in place; a shared one is cloned by that first write
/// (`relation_columns_cloned` when the caller passes a trace), except
/// where the write replaces the column outright — CompactRows gathers the
/// survivors of a shared column straight into a fresh one, and the sorts
/// write their output into fresh columns. The uniqueness test is an
/// acquire load of the count, paired with the release decrement of a copy
/// dropped on another thread, so no buffer is written in place while a
/// former co-owner may still be reading it. FromColumns adopts the
/// columns it is given without copying them.

namespace fgq {

class Relation;

/// A borrowed view of one tuple (a row of a Relation). With columnar
/// storage a row is not contiguous, so this is a (relation, row) proxy:
/// operator[] reads straight out of the column vectors.
struct TupleView {
  const Relation* rel = nullptr;
  size_t row = 0;
  size_t arity = 0;

  inline Value operator[](size_t c) const;
  inline Tuple ToTuple() const;
};

/// A named finite relation of fixed arity.
class Relation {
 public:
  /// Backing store of one column. Pool-allocated: columns are exactly the
  /// large, short-lived buffers the semijoin sweeps compact every pass,
  /// and recycling them sidesteps glibc's mmap/munmap churn (a page fault
  /// per 4 KiB of column data otherwise).
  using ColumnVec = std::vector<Value, PoolAllocator<Value>>;

  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity), cols_(arity) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  size_t arity() const { return arity_; }
  /// Cached tuple count — no division on the hot path.
  size_t NumTuples() const {
    assert(arity_ == 0 || num_tuples_ == cols_[0].size());
    return arity_ == 0 ? zero_arity_count_ : num_tuples_;
  }
  bool empty() const { return NumTuples() == 0; }

  /// ||R|| contribution in the paper's size measure: #tuples * arity.
  size_t SizeWeight() const { return NumTuples() * arity_; }

  /// Appends a tuple. The tuple length must equal arity().
  void Add(const Tuple& t);
  /// Appends a tuple from a raw pointer of arity() values. (Named
  /// differently from Add so brace-initializer calls never decay to a
  /// null pointer.)
  void AddRow(const Value* t);
  /// Appends a 0-ary "present" marker (for Boolean relations).
  void AddNullary();
  /// Bulk-appends `num_rows` row-major rows of arity() values each (used
  /// to stitch externally assembled buffers back in, e.g. wire decode).
  void AppendRows(const Value* rows, size_t num_rows);
  /// Appends every row of `other` (same arity required) — column memcpy,
  /// or, into an empty relation, a share of `other`'s columns.
  void AppendFrom(const Relation& other);
  /// Appends the first `num_rows` rows of `other` (same arity required).
  void AppendPrefixFrom(const Relation& other, size_t num_rows);
  /// Appends row `i` of `other` (same arity required).
  void AddRowFrom(const Relation& other, size_t i);
  /// Adopts pre-built columns (all the same length) as a relation, without
  /// copying them — the column-wise producers (atom scans) assemble output
  /// columns directly and hand them over. `sorted` adopts them
  /// as canonical (sorted() holds): the producer vouches that the rows
  /// are strictly ascending, which debug builds assert.
  static Relation FromColumns(std::string name, std::vector<ColumnVec> cols,
                              bool sorted = false);
  /// Pre-sizes the backing store for `num_rows` rows. A shared column
  /// is cloned at that capacity when `num_rows` exceeds the current row
  /// count (counted under `relation_columns_cloned` in `trace`), so the
  /// appends that follow write in place; otherwise a shared column stays
  /// shared.
  void Reserve(size_t num_rows, TraceContext* trace = nullptr);

  /// Returns a proxy view of the i-th row.
  TupleView Row(size_t i) const { return TupleView{this, i, arity_}; }
  /// One cell. Two dependent loads; hot loops should hoist Column(c).
  Value At(size_t row, size_t col) const { return cols_[col].data()[row]; }
  /// Contiguous storage of one column — the hot-loop accessor (one load
  /// off the column table: the data pointer is cached next to its owner).
  /// Copies of a relation return the same pointer until one of them
  /// writes the column.
  const Value* Column(size_t c) const { return cols_[c].data(); }
  /// Copies row `i` into `out` (arity() values).
  void CopyRow(size_t i, Value* out) const {
    for (size_t c = 0; c < arity_; ++c) out[c] = cols_[c].data()[i];
  }
  /// Materializes the whole relation row-major (wire encoding, test
  /// equality). O(N * arity) — not for hot paths.
  std::vector<Value> ToRowMajor() const;

  /// True when the rows are a strictly ascending set in canonical
  /// lexicographic order (established by SortDedup, preserved by the
  /// order-keeping mutators CompactRows/Filter and by copies, cleared by
  /// appends and resorts). SortDedup on such a relation is a no-op. The
  /// semijoin data plane keys fast paths off this: a sorted column probes
  /// in runs, and two relations sorted on a shared leading column can be
  /// semijoined by a linear merge with no hash table at all.
  bool sorted() const { return sorted_; }

  /// Sorts rows lexicographically and removes duplicates (set semantics).
  /// Returns at once when sorted() already holds.
  void SortDedup();
  /// Parallel variant: rows that pack run the same serial packed kernel;
  /// rows that do not take morsel-local sorts plus a dedup merge. The
  /// result is the same canonical sorted set for any thread count.
  /// Reports `sort_dedup_rows` and `sort_dedup_fallback_rows` to the
  /// context's trace.
  void SortDedup(const ExecContext& ctx);

  /// Sorts rows lexicographically by the given column permutation/subset
  /// order, e.g. {1,0} sorts by column 1 then column 0.
  void SortBy(const std::vector<size_t>& cols);

  /// Returns the projection of this relation onto `cols` (with dedup).
  /// The identity column list on a sorted relation shares the columns, and a
  /// column prefix {0..k-1} of a sorted relation drops its (adjacent)
  /// duplicates in one pass without sorting; both results stay sorted. A
  /// sorted relation whose column list moves one column to the front, the
  /// rest in order, is reordered by one stable counting sort on that
  /// column when its values densely fill their range
  /// (HashIndex::DenseKeyRange; `project_counting_sort_rows`).
  Relation Project(const std::vector<size_t>& cols,
                   const std::string& name) const;
  /// Parallel variant (same result for any thread count); the dedup runs
  /// under a `sort_dedup` span.
  Relation Project(const std::vector<size_t>& cols, const std::string& name,
                   const ExecContext& ctx) const;

  /// Keeps exactly the rows whose byte in `keep` is nonzero (one byte per
  /// row, keep.size() == NumTuples()): detects runs of survivors once and
  /// moves each run per column — memmove within a private column, a
  /// gather into a fresh column for a shared one — the selection-vector
  /// semijoin sweeps materialize their survivors through this single
  /// compaction pass. Preserves sorted order (a subsequence of a sorted
  /// sequence).
  void CompactRows(const std::vector<uint8_t>& keep);
  /// Pointer form (NumTuples() bytes) for callers whose bitmap lives in a
  /// pool-recycled buffer rather than a plain vector.
  void CompactRows(const uint8_t* keep);

  /// Keeps only the rows satisfying `pred`.
  void Filter(const std::function<bool(TupleView)>& pred);
  /// Parallel variant: `pred` is invoked concurrently from pool threads
  /// (it must be thread-safe); rows keep their relative order.
  void Filter(const std::function<bool(TupleView)>& pred,
              const ExecContext& ctx);

  /// True if some row equals `t` (linear scan; use HashIndex for bulk).
  bool Contains(const Tuple& t) const;

  /// Largest value appearing in the relation, or -1 when empty.
  Value MaxValue() const;

  /// Renders up to `limit` tuples for debugging/examples.
  std::string ToString(size_t limit = 20) const;

 private:
  /// The packed-key kernel: false (rows untouched) when the rows do not
  /// pack into 64 bits. When column 0 is already nondecreasing it sorts
  /// only within column 0's runs (`sort_dedup_run_local_rows`).
  bool SortDedupPacked(const ExecContext& ctx);
  /// True when every row is lexicographically below the next.
  bool StrictlyAscending() const;
  /// The index-sort fallback for rows that do not pack.
  void SortDedupByComparator(const ExecContext& ctx);
  void ApplyOrder(const std::vector<uint32_t>& order, size_t keep_n);
  /// Project's counting-sort path: fills this (empty, cols.size()-ary)
  /// relation with the nonempty sorted `src` reordered to `cols`, which
  /// moves one column to the front. False, with nothing written, when
  /// that column's values are too sparse for a per-value count table.
  bool CountingSortFrom(const Relation& src, const std::vector<size_t>& cols,
                        TraceContext* trace);

  /// A counted reference to one column's buffer, with the buffer's data
  /// pointer cached beside it. A null reference is an empty column.
  class ColumnRef {
   public:
    ColumnRef() = default;
    /// Adopts `vec` as a fresh, unshared buffer.
    explicit ColumnRef(ColumnVec vec)
        : buf_(new Buffer{{1}, std::move(vec)}), data_(buf_->vec.data()) {}
    ColumnRef(const ColumnRef& other) noexcept
        : buf_(other.buf_), data_(other.data_) {
      if (buf_ != nullptr) buf_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    ColumnRef(ColumnRef&& other) noexcept
        : buf_(other.buf_), data_(other.data_) {
      other.buf_ = nullptr;
      other.data_ = nullptr;
    }
    ColumnRef& operator=(ColumnRef other) noexcept {
      std::swap(buf_, other.buf_);
      std::swap(data_, other.data_);
      return *this;
    }
    ~ColumnRef() { Release(); }

    const Value* data() const { return data_; }
    size_t size() const { return buf_ == nullptr ? 0 : buf_->vec.size(); }
    /// True when another ColumnRef holds this buffer. A false answer
    /// synchronizes with every former co-owner's release, so the caller
    /// may then write the buffer in place.
    bool shared() const {
      return buf_ != nullptr &&
             buf_->refs.load(std::memory_order_acquire) != 1;
    }
    /// The buffer, made private first: cloned with room for
    /// `min_capacity` rows when shared (counted in `trace`), created with
    /// that room when null. A write through it that may move the data
    /// must end with Sync().
    ColumnVec& Private(size_t min_capacity = 0,
                       TraceContext* trace = nullptr) {
      if (buf_ == nullptr || shared()) Unshare(min_capacity, trace);
      return buf_->vec;
    }
    /// Re-caches the data pointer after a write through Private().
    void Sync() { data_ = buf_ == nullptr ? nullptr : buf_->vec.data(); }

   private:
    struct Buffer {
      std::atomic<size_t> refs{1};
      ColumnVec vec;
    };
    /// Private()'s slow path: creates or clones the buffer.
    void Unshare(size_t min_capacity, TraceContext* trace);
    void Release() noexcept {
      if (buf_ != nullptr &&
          buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete buf_;
      }
    }

    Buffer* buf_ = nullptr;
    const Value* data_ = nullptr;
  };

  /// Column `c` resized to `n` rows whose old contents the caller is
  /// about to overwrite: a shared column is replaced by a fresh buffer
  /// rather than cloned. Returns the writable data.
  Value* OverwriteColumn(size_t c, size_t n);
  /// Re-caches every column's data pointer; each mutator that wrote
  /// through ColumnRef::Private ends with it.
  void SyncColumns() {
    for (ColumnRef& col : cols_) col.Sync();
  }

  std::string name_;
  size_t arity_ = 0;
  size_t zero_arity_count_ = 0;
  size_t num_tuples_ = 0;   // cols_[i].size(), maintained by mutators.
  bool sorted_ = false;     // Rows in canonical lexicographic order.
  std::vector<ColumnRef> cols_;  // arity_ columns, equal length.
};

inline Value TupleView::operator[](size_t c) const { return rel->At(row, c); }

inline Tuple TupleView::ToTuple() const {
  Tuple t(arity);
  for (size_t c = 0; c < arity; ++c) t[c] = rel->At(row, c);
  return t;
}

}  // namespace fgq

#endif  // FGQ_DB_RELATION_H_
