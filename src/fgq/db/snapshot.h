#ifndef FGQ_DB_SNAPSHOT_H_
#define FGQ_DB_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/util/status.h"

/// \file snapshot.h
/// Epoch-based database snapshots with incremental index maintenance.
///
/// A SnapshotStore is the one data root of the serving stack
/// (QueryService, net::NetServer): readers never see a relation change
/// under them, so an answer is always exactly one epoch's state, never a
/// torn mix of pre- and post-mutation rows. A plain Database is served
/// by wrapping it: `SnapshotStore store(std::move(db));` is epoch 1.
///
///   * Readers call SnapshotStore::Current() and hold the returned
///     `shared_ptr<const Snapshot>` for the lifetime of the request (and
///     of any streaming enumerator). A Snapshot is a fully immutable,
///     epoch-tagged view: a shared Database (relation payloads behind
///     shared_ptrs, see database.h) plus any maintained hash indexes.
///   * A writer calls Apply(MutationBatch): it clones only the touched
///     relations (copy-on-write at relation granularity), delta-updates
///     the maintained indexes (HashIndex::DeltaBuild; full rebuild only
///     when the delta cannot land on the base layout), bumps the global
///     epoch and the per-relation epoch of every touched relation, and
///     publishes a new Snapshot. Untouched relations, their indexes, and
///     their per-relation epochs are shared with the previous snapshot.
///     AddRelation is the one way to create a relation: it publishes the
///     new relation at a new epoch, and Apply rejects unknown names.
///   * Reclamation is RCU-shaped but needs no epoch lists: superseded
///     snapshots stay alive exactly as long as some reader still pins
///     them; dropping the last shared_ptr frees the relations and
///     indexes only that snapshot still referenced.
///
/// Per-relation epochs are what make plan-cache invalidation selective:
/// a cached plan keys on the epochs of the relations its atoms mention,
/// so a mutation of R invalidates plans over R and nothing else
/// (serve/plan_cache.h).
///
/// Writers are serialized by the store's mutex; Apply is atomic — a batch
/// either publishes in full or (on validation failure) not at all, and no
/// reader ever observes a half-applied batch.

namespace fgq {

class TraceContext;

/// One relation's change set inside a batch. Deletes remove *every* row
/// equal to one of the listed tuples (set-style), then inserts append at
/// the tail in the given order. A relation listed with empty inserts and
/// deletes still counts as touched (its epoch is bumped).
struct RelationMutation {
  std::string relation;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

/// A batch of relation mutations applied as one atomic epoch step.
using MutationBatch = std::vector<RelationMutation>;

/// An immutable, epoch-tagged view of a database. Obtained from
/// SnapshotStore::Current(); keep the shared_ptr alive for as long as any
/// borrowed pointer into the snapshot (relations, indexes, enumerators)
/// is in use.
class Snapshot {
 public:
  /// Global epoch: 1 for the store's initial state, +1 per applied batch.
  uint64_t epoch() const { return epoch_; }

  /// The database view. Borrowed from the snapshot; stays valid while the
  /// snapshot is pinned.
  const Database& db() const { return *db_; }

  /// Epoch of the last batch that touched `name` (the initial epoch when
  /// never mutated since construction); 0 when the relation is absent.
  uint64_t RelationEpoch(const std::string& name) const {
    auto it = rel_epochs_.find(name);
    return it == rel_epochs_.end() ? 0 : it->second;
  }

  /// The maintained index for (relation, key_cols) registered via
  /// SnapshotStore::MaintainIndex, or null when none is. The index
  /// borrows this snapshot's relation payload; both stay valid while the
  /// snapshot is pinned.
  std::shared_ptr<const HashIndex> MaintainedIndex(
      const std::string& relation, const std::vector<size_t>& key_cols) const;

 private:
  friend class SnapshotStore;

  /// A maintained index plus the relation payload it borrows (the pin
  /// that keeps DeltaBuild's borrowed `rel_` alive across epochs).
  struct Maintained {
    std::string relation;
    std::vector<size_t> key_cols;
    std::shared_ptr<const Relation> rel;
    std::shared_ptr<const HashIndex> index;
  };

  std::shared_ptr<const Database> db_;
  uint64_t epoch_ = 1;
  std::map<std::string, uint64_t> rel_epochs_;
  std::vector<Maintained> indexes_;
};

/// Monotonic counters describing a store's maintenance history.
struct SnapshotStoreStats {
  uint64_t batches_applied = 0;
  uint64_t rows_inserted = 0;
  uint64_t rows_deleted = 0;
  /// Maintained-index updates that landed incrementally.
  uint64_t indexes_delta_built = 0;
  /// Maintained-index updates that fell back to a full rebuild.
  uint64_t indexes_rebuilt = 0;
};

/// The single mutable root of a served database: hands out immutable
/// snapshots to readers and applies mutation batches from writers.
/// Current() is safe from any thread; Apply/MaintainIndex serialize on an
/// internal mutex.
class SnapshotStore {
 public:
  /// Takes ownership of the initial database state (epoch 1).
  explicit SnapshotStore(Database db);

  /// The latest published snapshot. Never null.
  std::shared_ptr<const Snapshot> Current() const;

  /// Applies `batch` as one atomic epoch step and returns the new epoch.
  /// Validation failures (unknown relation, arity mismatch) reject the
  /// whole batch without publishing anything. `trace` (optional) records
  /// a db.apply span with delta-maintenance counters.
  Result<uint64_t> Apply(const MutationBatch& batch,
                         TraceContext* trace = nullptr);

  /// Publishes `rel` as a new relation at a new epoch (its relation
  /// epoch). AlreadyExists for a known name, mirroring
  /// Database::AddRelation; Apply keeps rejecting unknown relations.
  Status AddRelation(Relation rel);

  /// Registers a hash index over `relation` keyed by `key_cols` to be
  /// maintained across epochs: built now, delta-updated by every Apply
  /// that touches the relation. Re-registering the same (relation,
  /// key_cols) is a no-op. Registration republishes the current epoch
  /// with the index attached; it does not bump epochs (existing plans
  /// stay valid).
  Status MaintainIndex(const std::string& relation,
                       std::vector<size_t> key_cols);

  SnapshotStoreStats stats() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;

  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> rows_inserted_{0};
  std::atomic<uint64_t> rows_deleted_{0};
  std::atomic<uint64_t> indexes_delta_built_{0};
  std::atomic<uint64_t> indexes_rebuilt_{0};
};

}  // namespace fgq

#endif  // FGQ_DB_SNAPSHOT_H_
