#ifndef FGQ_SERVE_PLAN_CACHE_H_
#define FGQ_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fgq/db/relation.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/query/cq.h"
#include "fgq/util/hash.h"
#include "fgq/vm/program.h"

/// \file plan_cache.h
/// The serving layer's prepared-plan cache.
///
/// Preparing a query is the expensive half of answering it: for a
/// free-connex query, the Theorem 4.6 preprocessing (full reduction +
/// free-projection sweeps + hash-index builds) is O(||D||), while each
/// answer afterwards costs O(||phi||). A service that re-runs the
/// preprocessing on every request throws that asymmetry away. PlanCache
/// keeps the immutable preprocessing artifact — the fgq::vm Program
/// lowered from the IndexedFreeConnexPlan for free-connex/Boolean
/// queries, the materialized answer relation for the other classes —
/// keyed by the *canonicalized* query text and the per-relation epochs of
/// the pinned snapshot, so a repeated query (even alpha-renamed) skips
/// straight to the enumeration phase, and a mutation of relation R
/// invalidates the programs built over R simply by changing their key.

namespace fgq {

/// Renders `q` with variables renamed positionally ("v0", "v1", ... in
/// first-occurrence order, head first) so alpha-equivalent queries —
/// `Q(x) :- E(x, y)` and `Q(a) :- E(a, b)` — share one cache entry. Atom
/// order is preserved: reordering atoms is a different (if semantically
/// equal) plan, and canonicalizing modulo atom permutation would cost more
/// than a cache miss.
std::string CanonicalQueryText(const ConjunctiveQuery& q);

/// Cache key: canonical query text + the data state it was built against
/// + the semiring of a count-verb request.
///
/// The data state is `rel_epochs`: the pinned snapshot's per-relation
/// epoch for each distinct relation the query mentions (first-occurrence
/// order, which the canonical text fixes). A mutation of relation R
/// changes only R's epoch, so plans over untouched relations keep hitting
/// — selective invalidation. Stale entries age out of the LRU.
struct PlanKey {
  std::string canonical;
  /// Per-relation epochs of the snapshot the plan was prepared against.
  /// Absent relations record epoch 0, so creating one later invalidates
  /// too.
  std::vector<uint64_t> rel_epochs;
  /// static_cast<uint8_t>(SemiringId) of the preparing request (0 =
  /// counting — rows-verb and counting count requests). A cached entry
  /// may memoize the count-verb aggregate, which is semiring-specific, so
  /// aggregates under different semirings must never alias one entry.
  uint8_t semiring = 0;

  bool operator==(const PlanKey& o) const {
    return semiring == o.semiring && rel_epochs == o.rel_epochs &&
           canonical == o.canonical;
  }
};

/// Order-sensitive hash-combine over every field. The previous xor of
/// independently hashed fields collided trivially whenever two fields
/// swapped values (a ^ b == b ^ a) and cancelled identical contributions
/// outright; sequential HashCombine keeps each field's position in the
/// mix (see tests/serve_test.cc PlanKeyHashSwappedFields).
struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    uint64_t h = HashCombine(0x51ed270bu, k.semiring);
    h = HashCombine(h, k.rel_epochs.size());
    for (uint64_t e : k.rel_epochs) h = HashCombine(h, e);
    h = HashCombine(h, std::hash<std::string>()(k.canonical));
    return static_cast<size_t>(h);
  }
};

/// Builds the key for `q` pinned at `snap`: the canonical text plus the
/// epoch of each distinct relation the query mentions, in first-mention
/// order (atoms, which the canonical text preserves, then negated atoms
/// share the same list).
PlanKey MakePlanKey(const ConjunctiveQuery& q, const Snapshot& snap,
                    uint8_t semiring = 0);

/// One cached preparation. Exactly one of `program` / `answers` is set:
/// free-connex and Boolean queries cache the fgq::vm program lowered from
/// their indexed plan (which it pins alive; VM cursors and count streams
/// run per request), everything else caches the materialized answers.
/// All members are immutable shared state — safe to hand to any number of
/// concurrent requests.
struct CachedPlan {
  QueryClass classification = QueryClass::kCyclic;
  std::string algorithm;
  std::shared_ptr<const vm::Program> program;
  std::shared_ptr<const Relation> answers;
  /// Memoized count-verb aggregate for the key's (non-counting) semiring
  /// — keys carry the semiring id, so one entry never serves two
  /// semirings.
  std::shared_ptr<const SemiringValue> semiring_value;
};

/// A bounded LRU over CachedPlan entries. All operations take the cache
/// mutex; the values handed out are shared_ptrs to immutable state, so an
/// entry evicted mid-request stays alive until its last user drops it.
class PlanCache {
 public:
  /// `capacity` = max resident entries (>= 1).
  explicit PlanCache(size_t capacity = 128);

  /// Returns the entry for `key` and marks it most-recently-used, or
  /// nullptr on miss.
  std::shared_ptr<const CachedPlan> Get(const PlanKey& key);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when over capacity.
  void Put(const PlanKey& key, std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Lifetime hit/miss tallies (Get calls).
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const CachedPlan> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace fgq

#endif  // FGQ_SERVE_PLAN_CACHE_H_
