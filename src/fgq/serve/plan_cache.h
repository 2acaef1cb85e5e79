#ifndef FGQ_SERVE_PLAN_CACHE_H_
#define FGQ_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fgq/db/relation.h"
#include "fgq/count/semiring.h"
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
/// free projection + hash-index builds) is O(||D||), while each
/// answer afterwards costs O(||phi||). A service that re-runs the
/// preprocessing on every request throws that asymmetry away. PlanCache
/// keeps the immutable preprocessing artifact — the fgq::vm Program
/// lowered from the IndexedFreeConnexPlan for free-connex/Boolean
/// queries, the materialized answer relation for the other classes —
/// keyed by the *canonicalized* query text and the per-relation epochs of
/// the pinned snapshot, so a repeated query (even alpha-renamed) skips
/// straight to the enumeration phase, and a mutation of relation R
/// invalidates the programs built over R simply by changing their key.
///
/// One entry is one preparation of (query, data state): the rows verb and
/// the count verb under every semiring read the same entry. A count-verb
/// aggregate is a pure value of the entry and the semiring, so the entry
/// memoizes it in one slot per SemiringId.

namespace fgq {

/// Renders `q` with variables renamed positionally ("v0", "v1", ... in
/// first-occurrence order, head first) so alpha-equivalent queries —
/// `Q(x) :- E(x, y)` and `Q(a) :- E(a, b)` — share one cache entry. Atom
/// order is preserved: reordering atoms is a different (if semantically
/// equal) plan, and canonicalizing modulo atom permutation would cost more
/// than a cache miss.
std::string CanonicalQueryText(const ConjunctiveQuery& q);

/// Cache key: canonical query text + the data state it was built against.
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

  bool operator==(const PlanKey& o) const {
    return rel_epochs == o.rel_epochs && canonical == o.canonical;
  }
};

/// Order-sensitive hash-combine over every field. The previous xor of
/// independently hashed fields collided trivially whenever two fields
/// swapped values (a ^ b == b ^ a) and cancelled identical contributions
/// outright; sequential HashCombine keeps each field's position in the
/// mix (see tests/serve_test.cc PlanKeyHashSwappedFields).
struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    uint64_t h = HashCombine(0x51ed270bu, k.rel_epochs.size());
    for (uint64_t e : k.rel_epochs) h = HashCombine(h, e);
    h = HashCombine(h, std::hash<std::string>()(k.canonical));
    return static_cast<size_t>(h);
  }
};

/// Builds the key for `q` pinned at `snap`: the canonical text plus the
/// epoch of each distinct relation the query mentions, in first-mention
/// order (atoms, which the canonical text preserves, then negated atoms
/// share the same list).
PlanKey MakePlanKey(const ConjunctiveQuery& q, const Snapshot& snap);

/// One cached preparation. Exactly one of `program` / `answers` is set:
/// free-connex and Boolean queries cache the fgq::vm program lowered from
/// their indexed plan (which it pins alive; VM cursors and folds run per
/// request), everything else caches the materialized answers.
/// The plan members are immutable shared state and the memo is guarded
/// by its mutex — safe to hand to any number of concurrent requests.
struct CachedPlan {
  QueryClass classification = QueryClass::kCyclic;
  std::string algorithm;
  std::shared_ptr<const vm::Program> program;
  std::shared_ptr<const Relation> answers;
  /// Count-verb aggregates, one slot per SemiringId, indexed by its
  /// value. A slot holds only a successfully computed aggregate; a
  /// cancelled or failed computation leaves it empty.
  mutable std::mutex memo_mu;
  mutable std::optional<SemiringValue> memo[kNumSemirings];
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

  /// Returns the entry for `key`, or nullptr, counting nothing and
  /// leaving the LRU order alone: a look before deciding who answers.
  std::shared_ptr<const CachedPlan> Peek(const PlanKey& key) const;

  /// Counts a hit on `key` and marks it most-recently-used, as Get does,
  /// when it is resident; otherwise counts nothing and returns false. So
  /// Peek then Touch is one counted lookup, or none.
  bool Touch(const PlanKey& key);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when over capacity.
  void Put(const PlanKey& key, std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Lifetime hit/miss tallies (Get and Touch calls).
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
