#include "fgq/db/snapshot.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fgq/trace/trace.h"
#include "fgq/util/hash.h"

namespace fgq {

namespace {

/// Hash-set key for a tuple borrowed from a row-major store.
struct RowKey {
  const Value* data;
  size_t arity;
};

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    return static_cast<size_t>(HashSpan(k.data, k.arity));
  }
};

struct RowKeyEq {
  bool operator()(const RowKey& a, const RowKey& b) const {
    if (a.arity != b.arity) return false;
    for (size_t i = 0; i < a.arity; ++i) {
      if (a.data[i] != b.data[i]) return false;
    }
    return true;
  }
};

}  // namespace

std::shared_ptr<const HashIndex> Snapshot::MaintainedIndex(
    const std::string& relation, const std::vector<size_t>& key_cols) const {
  for (const Maintained& m : indexes_) {
    if (m.relation == relation && m.key_cols == key_cols) return m.index;
  }
  return nullptr;
}

SnapshotStore::SnapshotStore(Database db) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch_ = 1;
  for (const auto& [name, rel] : db.relations()) {
    snap->rel_epochs_[name] = 1;
  }
  snap->db_ = std::make_shared<const Database>(std::move(db));
  current_ = std::move(snap);
}

std::shared_ptr<const Snapshot> SnapshotStore::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Result<uint64_t> SnapshotStore::Apply(const MutationBatch& batch,
                                      TraceContext* trace) {
  TraceSpan span(trace, "db.apply", "db");
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> cur = current_;

  // Validate the whole batch before touching anything: Apply is atomic.
  for (const RelationMutation& m : batch) {
    std::shared_ptr<const Relation> old = cur->db_->FindShared(m.relation);
    if (old == nullptr) {
      return Status::NotFound("mutation targets unknown relation '" +
                              m.relation + "'");
    }
    for (const Tuple& t : m.inserts) {
      if (t.size() != old->arity()) {
        return Status::InvalidArgument(
            "insert arity mismatch for relation '" + m.relation + "'");
      }
    }
    for (const Tuple& t : m.deletes) {
      if (t.size() != old->arity()) {
        return Status::InvalidArgument(
            "delete arity mismatch for relation '" + m.relation + "'");
      }
    }
  }

  // Shallow copy: shares every relation payload with the current
  // snapshot; only touched relations are replaced below.
  auto next_db = std::make_shared<Database>(*cur->db_);
  const uint64_t next_epoch = cur->epoch_ + 1;

  auto next = std::make_shared<Snapshot>();
  next->epoch_ = next_epoch;
  next->rel_epochs_ = cur->rel_epochs_;
  next->indexes_ = cur->indexes_;  // Untouched entries carry over shared.

  uint64_t ins_total = 0, del_total = 0, delta_built = 0, rebuilt = 0;
  for (const RelationMutation& m : batch) {
    std::shared_ptr<const Relation> old = next_db->FindShared(m.relation);
    const size_t n_old = old->NumTuples();
    const size_t arity = old->arity();

    // Ascending ids of the rows the batch deletes (every row equal to a
    // listed tuple).
    std::vector<uint32_t> deleted;
    if (!m.deletes.empty()) {
      if (arity == 0) {
        // A 0-ary delete clears the "present" marker(s).
        for (size_t i = 0; i < n_old; ++i) {
          deleted.push_back(static_cast<uint32_t>(i));
        }
      } else {
        std::unordered_set<RowKey, RowKeyHash, RowKeyEq> kill;
        kill.reserve(m.deletes.size() * 2);
        for (const Tuple& t : m.deletes) kill.insert(RowKey{t.data(), arity});
        // Rows come out of the columnar store through one scratch buffer;
        // the kill set only borrows it for the duration of each count().
        Tuple scratch(arity);
        for (size_t i = 0; i < n_old; ++i) {
          old->CopyRow(i, scratch.data());
          if (kill.count(RowKey{scratch.data(), arity}) > 0) {
            deleted.push_back(static_cast<uint32_t>(i));
          }
        }
      }
    }

    // New payload: survivors in order, then the inserts at the tail —
    // exactly the shape HashIndex::DeltaBuild expects. An untouched
    // relation shares the old columns; otherwise each column is gathered
    // once, with room for the tail, and the relation adopts it.
    Relation next_rel(m.relation, arity);
    if (arity == 0) {
      // The "present" marker survives unless deleted; an insert sets it.
      if ((!old->empty() && deleted.empty()) || !m.inserts.empty()) {
        next_rel.AddNullary();
      }
    } else if (deleted.empty() && m.inserts.empty()) {
      next_rel.AppendFrom(*old);
    } else {
      std::vector<Relation::ColumnVec> cols(arity);
      for (size_t c = 0; c < arity; ++c) {
        const Value* src = old->Column(c);
        Relation::ColumnVec& col = cols[c];
        col.reserve(n_old - deleted.size() + m.inserts.size());
        size_t from = 0;
        for (uint32_t d : deleted) {
          col.insert(col.end(), src + from, src + d);
          from = d + 1;
        }
        col.insert(col.end(), src + from, src + n_old);
        for (const Tuple& t : m.inserts) col.push_back(t[c]);
      }
      next_rel = Relation::FromColumns(m.relation, std::move(cols));
    }
    ins_total += m.inserts.size();
    del_total += deleted.size();

    next_db->PutRelation(std::move(next_rel));
    std::shared_ptr<const Relation> fresh = next_db->FindShared(m.relation);
    next->rel_epochs_[m.relation] = next_epoch;

    // Maintain every registered index over this relation: delta first,
    // full rebuild only when the delta cannot land on the base layout.
    HashIndex::Delta delta;
    delta.deleted_rows = std::move(deleted);
    delta.num_inserted = m.inserts.size();
    for (Snapshot::Maintained& mi : next->indexes_) {
      if (mi.relation != m.relation) continue;
      std::unique_ptr<HashIndex> updated =
          HashIndex::DeltaBuild(*mi.index, *mi.rel, *fresh, delta);
      if (updated != nullptr) {
        ++delta_built;
        mi.index = std::shared_ptr<const HashIndex>(std::move(updated));
      } else {
        ++rebuilt;
        mi.index = std::make_shared<const HashIndex>(*fresh, mi.key_cols);
      }
      mi.rel = fresh;
    }
  }

  next->db_ = std::move(next_db);
  current_ = next;

  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  rows_inserted_.fetch_add(ins_total, std::memory_order_relaxed);
  rows_deleted_.fetch_add(del_total, std::memory_order_relaxed);
  indexes_delta_built_.fetch_add(delta_built, std::memory_order_relaxed);
  indexes_rebuilt_.fetch_add(rebuilt, std::memory_order_relaxed);
  if (trace != nullptr) {
    TraceCounter(trace, "db.rows_inserted", ins_total);
    TraceCounter(trace, "db.rows_deleted", del_total);
    TraceCounter(trace, "db.indexes_delta_built", delta_built);
    TraceCounter(trace, "db.indexes_rebuilt", rebuilt);
    span.Arg("epoch", std::to_string(next_epoch));
  }
  return next_epoch;
}

Status SnapshotStore::AddRelation(Relation rel) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> cur = current_;
  const std::string name = rel.name();
  auto next_db = std::make_shared<Database>(*cur->db_);
  FGQ_RETURN_NOT_OK(next_db->AddRelation(std::move(rel)));
  // Indexes only exist over relations already present: they carry over.
  auto next = std::make_shared<Snapshot>(*cur);
  next->epoch_ = cur->epoch_ + 1;
  next->rel_epochs_[name] = next->epoch_;
  next->db_ = std::move(next_db);
  current_ = std::move(next);
  return Status::OK();
}

Status SnapshotStore::MaintainIndex(const std::string& relation,
                                    std::vector<size_t> key_cols) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> cur = current_;
  if (cur->MaintainedIndex(relation, key_cols) != nullptr) {
    return Status::OK();
  }
  std::shared_ptr<const Relation> rel = cur->db_->FindShared(relation);
  if (rel == nullptr) {
    return Status::NotFound("cannot maintain index over unknown relation '" +
                            relation + "'");
  }
  for (size_t c : key_cols) {
    if (c >= rel->arity()) {
      return Status::InvalidArgument("index key column out of range for '" +
                                     relation + "'");
    }
  }
  // Republish the same epoch with the index attached: nothing a cached
  // plan depends on changed.
  auto next = std::make_shared<Snapshot>(*cur);
  Snapshot::Maintained mi;
  mi.relation = relation;
  mi.index = std::make_shared<const HashIndex>(*rel, key_cols);
  mi.key_cols = std::move(key_cols);
  mi.rel = std::move(rel);
  next->indexes_.push_back(std::move(mi));
  current_ = std::move(next);
  return Status::OK();
}

SnapshotStoreStats SnapshotStore::stats() const {
  SnapshotStoreStats s;
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.rows_inserted = rows_inserted_.load(std::memory_order_relaxed);
  s.rows_deleted = rows_deleted_.load(std::memory_order_relaxed);
  s.indexes_delta_built = indexes_delta_built_.load(std::memory_order_relaxed);
  s.indexes_rebuilt = indexes_rebuilt_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fgq
