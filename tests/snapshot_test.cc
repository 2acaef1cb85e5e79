#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/db/relation.h"
#include "fgq/db/snapshot.h"
#include "fgq/util/random.h"

namespace fgq {
namespace {

Database TwoRelations() {
  Database db;
  Relation r("R", 2);
  r.Add({1, 10});
  r.Add({2, 20});
  r.Add({2, 21});
  db.PutRelation(std::move(r));
  Relation s("S", 1);
  s.Add({5});
  db.PutRelation(std::move(s));
  return db;
}

MutationBatch InsertR(std::vector<Tuple> rows) {
  RelationMutation m;
  m.relation = "R";
  m.inserts = std::move(rows);
  return {m};
}

MutationBatch DeleteR(std::vector<Tuple> rows) {
  RelationMutation m;
  m.relation = "R";
  m.deletes = std::move(rows);
  return {m};
}

TEST(SnapshotStore, InitialEpochAndCurrent) {
  SnapshotStore store(TwoRelations());
  auto snap = store.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->RelationEpoch("R"), 1u);
  EXPECT_EQ(snap->RelationEpoch("S"), 1u);
  EXPECT_EQ(snap->RelationEpoch("Nope"), 0u);
  EXPECT_EQ(snap->db().Find("R").value()->NumTuples(), 3u);
}

TEST(SnapshotStore, ApplyBumpsOnlyTouchedRelationEpochs) {
  SnapshotStore store(TwoRelations());
  Result<uint64_t> e = store.Apply(InsertR({{3, 30}}));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(*e, 2u);
  auto snap = store.Current();
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(snap->RelationEpoch("R"), 2u);
  EXPECT_EQ(snap->RelationEpoch("S"), 1u);  // Untouched: epoch shared.
  EXPECT_EQ(snap->db().Find("R").value()->NumTuples(), 4u);
}

TEST(SnapshotStore, AddRelationPublishesANewEpoch) {
  SnapshotStore store(TwoRelations());
  ASSERT_TRUE(store.MaintainIndex("R", {0}).ok());
  auto before = store.Current();
  Relation t("T", 1);
  t.Add({7});
  ASSERT_TRUE(store.AddRelation(std::move(t)).ok());
  auto snap = store.Current();
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(snap->RelationEpoch("T"), 2u);
  EXPECT_EQ(snap->RelationEpoch("R"), 1u);  // Existing relations keep
  EXPECT_EQ(snap->RelationEpoch("S"), 1u);  // their epochs...
  EXPECT_NE(snap->MaintainedIndex("R", {0}), nullptr);  // ...and indexes.
  EXPECT_EQ(snap->db().Find("T").value()->NumTuples(), 1u);
  EXPECT_FALSE(before->db().Has("T"));  // The pinned epoch is unchanged.
  // The new relation is now a legal Apply target.
  RelationMutation m{"T", {{8}}, {}};
  Result<uint64_t> e = store.Apply({m});
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(*e, 3u);
}

TEST(SnapshotStore, AddRelationRejectsAnExistingName) {
  SnapshotStore store(TwoRelations());
  Status st = store.AddRelation(Relation("R", 2));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st;
  auto snap = store.Current();
  EXPECT_EQ(snap->epoch(), 1u);  // Nothing published.
  EXPECT_EQ(snap->RelationEpoch("R"), 1u);
  EXPECT_EQ(snap->db().Find("R").value()->NumTuples(), 3u);
}

TEST(SnapshotStore, PinnedSnapshotIsImmutableAcrossApply) {
  SnapshotStore store(TwoRelations());
  auto before = store.Current();
  ASSERT_TRUE(store.Apply(DeleteR({{2, 20}, {2, 21}})).ok());
  auto after = store.Current();
  // The pinned pre-mutation snapshot still sees every original row.
  EXPECT_EQ(before->db().Find("R").value()->NumTuples(), 3u);
  EXPECT_TRUE(before->db().Find("R").value()->Contains({2, 20}));
  EXPECT_EQ(after->db().Find("R").value()->NumTuples(), 1u);
  EXPECT_FALSE(after->db().Find("R").value()->Contains({2, 20}));
}

TEST(SnapshotStore, UntouchedRelationPayloadIsShared) {
  SnapshotStore store(TwoRelations());
  auto before = store.Current();
  ASSERT_TRUE(store.Apply(InsertR({{9, 90}})).ok());
  auto after = store.Current();
  // COW at relation granularity: S's payload pointer is shared between
  // the snapshots; R's was cloned by the mutation.
  EXPECT_EQ(before->db().FindShared("S").get(),
            after->db().FindShared("S").get());
  EXPECT_NE(before->db().FindShared("R").get(),
            after->db().FindShared("R").get());
}

TEST(SnapshotStore, DroppingLastPinReclaimsSupersededPayload) {
  SnapshotStore store(TwoRelations());
  auto before = store.Current();
  std::shared_ptr<const Relation> old_r = before->db().FindShared("R");
  ASSERT_TRUE(store.Apply(InsertR({{7, 70}})).ok());
  // Pinned by: our handle, the superseded snapshot's Database.
  const long pinned = old_r.use_count();
  before.reset();  // RCU-style: last snapshot pin gone...
  EXPECT_LT(old_r.use_count(), pinned);
  std::weak_ptr<const Relation> weak = old_r;
  old_r.reset();  // ...and the payload frees with the last reference.
  EXPECT_TRUE(weak.expired());
}

TEST(SnapshotStore, ApplyIsAtomicOnValidationFailure) {
  SnapshotStore store(TwoRelations());
  MutationBatch batch = InsertR({{4, 40}});
  RelationMutation bad;
  bad.relation = "Nope";
  bad.inserts.push_back({1});
  batch.push_back(bad);
  Result<uint64_t> e = store.Apply(batch);
  ASSERT_FALSE(e.ok());
  auto snap = store.Current();
  EXPECT_EQ(snap->epoch(), 1u);  // Nothing published.
  EXPECT_EQ(snap->db().Find("R").value()->NumTuples(), 3u);

  MutationBatch arity = InsertR({{1, 2, 3}});  // R has arity 2.
  EXPECT_FALSE(store.Apply(arity).ok());
  EXPECT_EQ(store.Current()->epoch(), 1u);
}

TEST(SnapshotStore, DeletesAreSetStyle) {
  Database db;
  Relation r("R", 1);
  r.Add({1});
  r.Add({2});
  r.Add({1});  // Duplicate row: one delete tuple removes both.
  db.PutRelation(std::move(r));
  SnapshotStore store(std::move(db));
  ASSERT_TRUE(store.Apply({{"R", {}, {{1}}}}).ok());
  const Relation* after = store.Current()->db().Find("R").value();
  EXPECT_EQ(after->NumTuples(), 1u);
  EXPECT_TRUE(after->Contains({2}));
}

TEST(SnapshotStore, MaintainedIndexTracksEpochs) {
  SnapshotStore store(TwoRelations());
  ASSERT_TRUE(store.MaintainIndex("R", {0}).ok());
  // Registration republishes the current epoch without bumping it.
  auto snap = store.Current();
  EXPECT_EQ(snap->epoch(), 1u);
  auto idx = snap->MaintainedIndex("R", {0});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup({2}).size(), 2u);
  EXPECT_EQ(snap->MaintainedIndex("R", {1}), nullptr);
  EXPECT_EQ(snap->MaintainedIndex("S", {0}), nullptr);

  ASSERT_TRUE(store.Apply(InsertR({{2, 22}, {6, 60}})).ok());
  auto snap2 = store.Current();
  auto idx2 = snap2->MaintainedIndex("R", {0});
  ASSERT_NE(idx2, nullptr);
  EXPECT_EQ(idx2->Lookup({2}).size(), 3u);
  EXPECT_EQ(idx2->Lookup({6}).size(), 1u);
  // The pinned old snapshot keeps its old index view.
  EXPECT_EQ(idx->Lookup({2}).size(), 2u);
  EXPECT_GE(store.stats().indexes_delta_built + store.stats().indexes_rebuilt,
            1u);
}

// Regression: a delta batch that empties a key group leaves the group in
// the table (hash kept, no rows). A later batch re-inserting that key —
// or deleting/probing along the same chain — must skip the emptied group
// instead of dereferencing its nonexistent representative row (that read
// ran past row_ids_ under ASan).
TEST(SnapshotStore, ReinsertAfterKeyEmptiedByEarlierBatch) {
  for (Value doomed = 1; doomed <= 3; ++doomed) {
    Database db;
    Relation r("R", 2);
    r.Add({1, 10});
    r.Add({2, 20});
    r.Add({3, 30});
    db.PutRelation(std::move(r));
    SnapshotStore store(std::move(db));
    ASSERT_TRUE(store.MaintainIndex("R", {0}).ok());
    ASSERT_TRUE(store.Apply(DeleteR({{doomed, doomed * 10}})).ok());
    ASSERT_TRUE(store.Apply(InsertR({{doomed, 99}})).ok());
    auto idx = store.Current()->MaintainedIndex("R", {0});
    ASSERT_NE(idx, nullptr);
    for (Value k = 1; k <= 3; ++k) {
      const size_t want = (k == doomed) ? 1u : 1u;
      EXPECT_EQ(idx->Lookup({k}).size(), want) << "key " << k;
    }
    const Relation* rel = store.Current()->db().Find("R").value();
    HashIndex fresh(*rel, {0});
    for (Value k = 0; k <= 4; ++k) {
      EXPECT_EQ(idx->Lookup({k}).size(), fresh.Lookup({k}).size())
          << "doomed=" << doomed << " key=" << k;
    }
  }
}

TEST(DeltaBuild, RefusesShapesItCannotAbsorb) {
  Relation r("R", 2);
  r.Add({1, 10});
  HashIndex base(r, {0});
  Relation empty_base_rel("R", 2);
  HashIndex empty_base(empty_base_rel, {0});
  Relation grown("R", 2);
  grown.Add({1, 10});
  grown.Add({2, 20});
  HashIndex::Delta ins;
  ins.num_inserted = 1;
  // Empty base and empty key always fall back.
  EXPECT_EQ(HashIndex::DeltaBuild(empty_base, empty_base_rel, grown,
                                  HashIndex::Delta{{}, 2}),
            nullptr);
  HashIndex nokey(r, {});
  EXPECT_EQ(HashIndex::DeltaBuild(nokey, r, grown, ins), nullptr);
  // Mis-shaped deltas are rejected rather than trusted.
  HashIndex::Delta wrong;
  wrong.num_inserted = 2;
  EXPECT_EQ(HashIndex::DeltaBuild(base, r, grown, wrong), nullptr);
  HashIndex::Delta unsorted;
  unsorted.deleted_rows = {0, 0};
  EXPECT_EQ(HashIndex::DeltaBuild(base, r, grown, unsorted), nullptr);
}

// Chained randomized delta maintenance through the store: after every
// batch the maintained index must agree with a fresh build on every key
// in the domain (hits included, and — crucially — misses: emptied groups
// must not resurrect rows or derail the probe chain).
TEST(DeltaBuild, FuzzedChainsMatchFreshBuilds) {
  constexpr Value kDomain = 8;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 7919 + 1);
    Database db;
    Relation r("R", 2);
    const size_t n0 = 3 + rng.Below(10);
    for (size_t i = 0; i < n0; ++i) {
      r.Add({static_cast<Value>(rng.Below(kDomain)),
             static_cast<Value>(rng.Below(kDomain))});
    }
    db.PutRelation(std::move(r));
    SnapshotStore store(std::move(db));
    ASSERT_TRUE(store.MaintainIndex("R", {0}).ok());
    for (int batch = 0; batch < 6; ++batch) {
      RelationMutation m;
      m.relation = "R";
      const Relation* cur = store.Current()->db().Find("R").value();
      const size_t dels = rng.Below(1 + cur->NumTuples());
      for (size_t d = 0; d < dels; ++d) {
        const size_t row = rng.Below(cur->NumTuples());
        m.deletes.push_back(cur->Row(row).ToTuple());
      }
      const size_t inss = rng.Below(5);
      for (size_t i = 0; i < inss; ++i) {
        m.inserts.push_back({static_cast<Value>(rng.Below(kDomain)),
                             static_cast<Value>(rng.Below(kDomain))});
      }
      ASSERT_TRUE(store.Apply({m}).ok());
      auto snap = store.Current();
      auto maintained = snap->MaintainedIndex("R", {0});
      ASSERT_NE(maintained, nullptr);
      const Relation* rel = snap->db().Find("R").value();
      HashIndex fresh(*rel, {0});
      for (Value k = 0; k < kDomain; ++k) {
        std::multiset<uint32_t> a, b;
        for (uint32_t id : maintained->Lookup({k})) a.insert(id);
        for (uint32_t id : fresh.Lookup({k})) b.insert(id);
        EXPECT_EQ(a, b) << "seed " << seed << " batch " << batch << " key "
                        << k;
      }
    }
    const SnapshotStoreStats st = store.stats();
    EXPECT_EQ(st.batches_applied, 6u);
  }
}

// Readers pin snapshots while a writer publishes epochs: every pinned
// view must be internally consistent (torn states would show up as a
// relation size outside the two legal states) and epochs must ascend.
TEST(SnapshotStore, ConcurrentReadersSeeOnlyPublishedEpochs) {
  Database db;
  Relation r("R", 1);
  r.Add({0});
  db.PutRelation(std::move(r));
  SnapshotStore store(std::move(db));
  ASSERT_TRUE(store.MaintainIndex("R", {0}).ok());
  constexpr int kBatches = 200;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = store.Current();
        EXPECT_GE(snap->epoch(), last);
        last = snap->epoch();
        const Relation* rel = snap->db().Find("R").value();
        // Batch k inserts {k}: at epoch e the relation holds rows 0..e-1.
        EXPECT_EQ(rel->NumTuples(), snap->epoch());
        auto idx = snap->MaintainedIndex("R", {0});
        ASSERT_NE(idx, nullptr);
        EXPECT_EQ(idx->Lookup({static_cast<Value>(snap->epoch() - 1)}).size(),
                  1u);
      }
    });
  }
  for (int k = 1; k <= kBatches; ++k) {
    RelationMutation m;
    m.relation = "R";
    m.inserts.push_back({static_cast<Value>(k)});
    ASSERT_TRUE(store.Apply({m}).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(store.Current()->epoch(), 1u + kBatches);
  const SnapshotStoreStats st = store.stats();
  EXPECT_EQ(st.batches_applied, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(st.rows_inserted, static_cast<uint64_t>(kBatches));
  EXPECT_GT(st.indexes_delta_built, 0u);
}

}  // namespace
}  // namespace fgq
