#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fgq/query/parser.h"
#include "fgq/serve/plan_cache.h"
#include "fgq/serve/query_service.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto q = ParseConjunctiveQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

/// E = {(0,1),(1,2),(2,0),(0,3)}, B = {1, 2}.
Database TinyGraph() {
  Database db;
  Relation e("E", 2);
  e.Add({0, 1});
  e.Add({1, 2});
  e.Add({2, 0});
  e.Add({0, 3});
  Relation b("B", 1);
  b.Add({1});
  b.Add({2});
  db.PutRelation(std::move(e));
  db.PutRelation(std::move(b));
  return db;
}

std::set<Tuple> Rows(const Relation& rel) {
  std::set<Tuple> out;
  for (size_t i = 0; i < rel.NumTuples(); ++i) {
    out.insert(rel.Row(i).ToTuple());
  }
  return out;
}

/// A cyclic (triangle) query over big enough relations that the
/// backtracking oracle runs visibly long — the deadline/cancellation
/// tests need in-flight time to interrupt.
ConjunctiveQuery TriangleQuery() {
  return Q("T(x, y, z) :- E1(x, y), E2(y, z), E3(z, x).");
}

Database TriangleDatabase(size_t tuples) {
  Rng rng(3);
  return PathDatabase(3, tuples, static_cast<Value>(tuples / 2), &rng);
}

// ---- CanonicalQueryText -----------------------------------------------------

TEST(CanonicalQueryText, AlphaRenamedQueriesCollide) {
  EXPECT_EQ(CanonicalQueryText(Q("Q(x) :- E(x, y), B(y).")),
            CanonicalQueryText(Q("Q(a) :- E(a, b), B(b).")));
}

TEST(CanonicalQueryText, DistinguishesStructure) {
  std::set<std::string> keys;
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, y).")));
  keys.insert(CanonicalQueryText(Q("Q(y) :- E(x, y).")));
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, x).")));
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, 1).")));
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, y), not B(y).")));
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, y), x != y.")));
  keys.insert(CanonicalQueryText(Q("Q(x) :- E(x, y), x < y.")));
  EXPECT_EQ(keys.size(), 7u);
}

// ---- PlanCache --------------------------------------------------------------

TEST(PlanCache, LruEviction) {
  PlanCache cache(2);
  auto mk = [] { return std::make_shared<const CachedPlan>(); };
  cache.Put({"a", {1}}, mk());
  cache.Put({"b", {1}}, mk());
  EXPECT_NE(cache.Get({"a", {1}}), nullptr);  // "a" is now most recent.
  cache.Put({"c", {1}}, mk());                // Evicts "b".
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get({"a", {1}}), nullptr);
  EXPECT_EQ(cache.Get({"b", {1}}), nullptr);
  EXPECT_NE(cache.Get({"c", {1}}), nullptr);
}

TEST(PlanCache, EpochsArePartOfKey) {
  PlanCache cache(8);
  cache.Put({"q", {1}}, std::make_shared<const CachedPlan>());
  EXPECT_NE(cache.Get({"q", {1}}), nullptr);
  EXPECT_EQ(cache.Get({"q", {2}}), nullptr);
}

TEST(PlanCache, PlanKeyHashSwappedFields) {
  // The hash must be order-sensitive: the old xor-of-field-hashes scheme
  // collided whenever two fields swapped values or contributed identical
  // hashes that cancelled. These pairs compare unequal and must (with
  // overwhelming probability) hash apart.
  PlanKeyHash h;
  // Epoch order participates.
  PlanKey c{"q", {1, 2}};
  PlanKey d{"q", {2, 1}};
  EXPECT_FALSE(c == d);
  EXPECT_NE(h(c), h(d));

  // Epoch-list length participates: {0} vs {}.
  PlanKey e{"q", {0}};
  PlanKey f{"q", {}};
  EXPECT_FALSE(e == f);
  EXPECT_NE(h(e), h(f));
}

TEST(PlanCache, PutReplacesExistingEntry) {
  PlanCache cache(2);
  auto first = std::make_shared<const CachedPlan>();
  auto second = std::make_shared<const CachedPlan>();
  cache.Put({"q", {1}}, first);
  cache.Put({"r", {1}}, std::make_shared<const CachedPlan>());
  cache.Put({"q", {1}}, second);  // Replace, not duplicate.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get({"q", {1}}).get(), second.get());
  // Replacement spliced "q" to the front, so the next insert evicts "r".
  cache.Put({"s", {1}}, std::make_shared<const CachedPlan>());
  EXPECT_NE(cache.Get({"q", {1}}), nullptr);
  EXPECT_EQ(cache.Get({"r", {1}}), nullptr);
}

// ---- QueryService: caching --------------------------------------------------

TEST(QueryService, CacheHitReturnsIdenticalResults) {
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(&store, opts);
  ServiceRequest req;
  req.query = Q("Q(x) :- E(x, y), B(y).");

  ServiceResponse cold = service.Submit(req).get();
  ASSERT_TRUE(cold.status.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);

  ServiceResponse warm = service.Submit(req).get();
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(Rows(*warm.answers), Rows(*cold.answers));
  EXPECT_EQ(Rows(*cold.answers), (std::set<Tuple>{{0}, {1}}));
}

TEST(QueryService, AlphaRenamedQueryHitsCache) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest a;
  a.query = Q("Q(x) :- E(x, y), B(y).");
  ASSERT_TRUE(service.Submit(a).get().status.ok());
  ServiceRequest b;
  b.query = Q("Q(u) :- E(u, v), B(v).");
  ServiceResponse resp = service.Submit(b).get();
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.cache_hit);
}

TEST(QueryService, MutationInvalidatesCachedPlans) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest req;
  req.query = Q("Q(x) :- E(x, y), B(y).");

  ServiceResponse before = service.Submit(req).get();
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(Rows(*before.answers), (std::set<Tuple>{{0}, {1}}));

  // Mutate B: it gains 3, so E(0,3) now witnesses 0 — and the stale
  // plan (which pre-projects B) must not be reused.
  ASSERT_TRUE(store.Apply({{"B", {{3}}, {}}}).ok());

  ServiceResponse after = service.Submit(req).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(Rows(*after.answers), (std::set<Tuple>{{0}, {1}}));
  // Same answers here (0 already present), so check via a query whose
  // output actually changes.
  ServiceRequest req2;
  req2.query = Q("P(y) :- B(y).");
  ServiceResponse p1 = service.Submit(req2).get();
  ASSERT_TRUE(p1.status.ok());
  EXPECT_EQ(p1.answers->NumTuples(), 3u);
}

TEST(QueryService, CountVerbMatchesRowCount) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest rows;
  rows.query = Q("Q(x, y) :- E(x, y).");
  ServiceResponse r = service.Submit(rows).get();
  ASSERT_TRUE(r.status.ok());

  ServiceRequest count;
  count.query = Q("Q(x, y) :- E(x, y).");
  count.verb = ServeVerb::kCount;
  ServiceResponse c = service.Submit(count).get();
  ASSERT_TRUE(c.status.ok());
  EXPECT_TRUE(c.cache_hit);  // Rows and count share the cached plan.
  EXPECT_EQ(c.count, BigInt(static_cast<int64_t>(r.answers->NumTuples())));
}

TEST(QueryService, BooleanAndNonFreeConnexClasses) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);

  ServiceRequest boolean;
  boolean.query = Q("Q() :- E(x, y), B(y).");
  ServiceResponse b = service.Submit(boolean).get();
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(b.classification, QueryClass::kBooleanAcyclic);
  EXPECT_EQ(b.answers->NumTuples(), 1u);  // Satisfiable.

  // Path of length 2 with endpoints free: acyclic, not free-connex —
  // cached as materialized answers.
  ServiceRequest path;
  path.query = Q("Q(x, z) :- E(x, y), E(y, z).");
  ServiceResponse p1 = service.Submit(path).get();
  ASSERT_TRUE(p1.status.ok());
  EXPECT_EQ(p1.classification, QueryClass::kGeneralAcyclic);
  ServiceResponse p2 = service.Submit(path).get();
  ASSERT_TRUE(p2.status.ok());
  EXPECT_TRUE(p2.cache_hit);
  EXPECT_EQ(Rows(*p2.answers), Rows(*p1.answers));

  // Cyclic triangle: oracle-backed, also cached as answers.
  ServiceRequest tri;
  tri.query = Q("T(x) :- E(x, y), E(y, z), E(z, x).");
  ServiceResponse t = service.Submit(tri).get();
  ASSERT_TRUE(t.status.ok());
  EXPECT_EQ(t.classification, QueryClass::kCyclic);
  EXPECT_EQ(Rows(*t.answers), (std::set<Tuple>{{0}, {1}, {2}}));
}

TEST(QueryService, LruEvictionBoundsResidentPlans) {
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.cache_capacity = 2;
  QueryService service(&store, opts);
  for (const char* text :
       {"A(x) :- E(x, y).", "B(y) :- E(x, y).", "C(x) :- B(x)."}) {
    ServiceRequest req;
    req.query = Q(text);
    ASSERT_TRUE(service.Submit(req).get().status.ok()) << text;
  }
  EXPECT_LE(service.cache().size(), 2u);
  // The first query was evicted; re-running it is a miss.
  ServiceRequest req;
  req.query = Q("A(x) :- E(x, y).");
  EXPECT_FALSE(service.Submit(req).get().cache_hit);
}

// ---- QueryService: deadlines and cancellation -------------------------------

TEST(QueryService, ZeroDeadlineCyclicQueryReturnsDeadlineExceeded) {
  SnapshotStore store(TriangleDatabase(800));
  QueryService service(&store);
  ServiceRequest req;
  req.query = TriangleQuery();
  req.timeout = std::chrono::nanoseconds(1);
  ServiceResponse resp = service.Submit(req).get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded)
      << resp.status;
  EXPECT_EQ(resp.classification, QueryClass::kCyclic);
  // Failed requests are never cached.
  EXPECT_EQ(service.cache().size(), 0u);
  EXPECT_EQ(service.metrics().GetCounter("serve.deadline_exceeded").Value(),
            1u);
}

TEST(QueryService, ZeroDeadlineFreeConnexReturnsDeadlineExceeded) {
  Rng rng(9);
  SnapshotStore store(Figure1Database(5000, 500, &rng));
  QueryService service(&store);
  ServiceRequest req;
  req.query = Figure1Query();
  req.timeout = std::chrono::nanoseconds(1);
  ServiceResponse resp = service.Submit(req).get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded)
      << resp.status;
}

TEST(QueryService, CancelAllInterruptsInflightRequests) {
  SnapshotStore store(TriangleDatabase(2000));
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&store, opts);
  ServiceRequest req;
  req.query = TriangleQuery();
  std::future<ServiceResponse> fut = service.Submit(std::move(req));
  service.CancelAll();
  ServiceResponse resp = fut.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled) << resp.status;
}

TEST(QueryService, StopCancelsQueuedRequests) {
  SnapshotStore store(TriangleDatabase(2000));
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_pending = 8;
  auto service = std::make_unique<QueryService>(&store, opts);
  std::vector<std::future<ServiceResponse>> futs;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest req;
    req.query = TriangleQuery();
    futs.push_back(service->Submit(std::move(req)));
  }
  service.reset();  // Stop(): cancels queued + in-flight, joins.
  for (auto& f : futs) {
    Status st = f.get().status;
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  }
}

// ---- QueryService: admission control ----------------------------------------

TEST(QueryService, RejectPolicyBouncesWhenQueueFull) {
  SnapshotStore store(TriangleDatabase(2000));
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  QueryService service(&store, opts);

  // Occupy the single worker with a slow cyclic query, then fill the
  // one queue slot; the next Reject-policy Submit must bounce — its
  // future resolves immediately with ResourceExhausted.
  std::vector<std::future<ServiceResponse>> futs;
  ServiceRequest slow;
  slow.query = TriangleQuery();
  futs.push_back(service.Submit(slow));

  bool saw_rejection = false;
  for (int i = 0; i < 8 && !saw_rejection; ++i) {
    std::future<ServiceResponse> f =
        service.Submit(slow, SubmitPolicy::Reject());
    // A rejected future is ready before Submit returns; accepted slow
    // triangles are not (and can only fail later with Cancelled).
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        f.get().status.code() == StatusCode::kResourceExhausted) {
      saw_rejection = true;
    } else {
      futs.push_back(std::move(f));
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(service.metrics().GetCounter("serve.rejected").Value(), 1u);

  service.CancelAll();
  for (auto& f : futs) {
    if (f.valid()) f.get();
  }
}

TEST(QueryService, BlockPolicyBoundedWaitTimesOut) {
  SnapshotStore store(TriangleDatabase(2000));
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  QueryService service(&store, opts);

  std::vector<std::future<ServiceResponse>> futs;
  ServiceRequest slow;
  slow.query = TriangleQuery();
  // Worker + the single queue slot: both occupied.
  futs.push_back(service.Submit(slow));
  futs.push_back(service.Submit(slow));

  // A bounded blocking Submit must give up on its own instead of hanging.
  SubmitPolicy bounded;
  bounded.max_wait = std::chrono::milliseconds(50);
  std::future<ServiceResponse> f = service.Submit(slow, bounded);
  EXPECT_EQ(f.get().status.code(), StatusCode::kResourceExhausted);

  service.CancelAll();
  for (auto& fut : futs) fut.get();
}

TEST(QueryService, RowLimitTruncatesAnswers) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest req;
  req.query = Q("Q(x, y) :- E(x, y).");
  req.limit = 1;
  ServiceResponse one = service.Submit(req).get();
  ASSERT_TRUE(one.status.ok()) << one.status;
  EXPECT_EQ(one.answers->NumTuples(), 1u);

  // The cached (materialized or cursor) path honors the limit too.
  req.limit = 3;
  ServiceResponse three = service.Submit(req).get();
  ASSERT_TRUE(three.status.ok());
  EXPECT_TRUE(three.cache_hit);
  EXPECT_EQ(three.answers->NumTuples(), 3u);

  req.limit = 0;  // 0 = everything.
  ServiceResponse all = service.Submit(req).get();
  ASSERT_TRUE(all.status.ok());
  EXPECT_EQ(all.answers->NumTuples(), 4u);
}

TEST(QueryService, OnDoneHookFiresAfterFutureIsReady) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest req;
  req.query = Q("Q(x) :- E(x, y).");
  std::promise<Status> hook;
  std::future<Status> hooked = hook.get_future();
  req.on_done = [&hook](const ServiceResponse& resp) {
    hook.set_value(resp.status);
  };
  std::future<ServiceResponse> fut = service.Submit(std::move(req));
  // The hook contract: it fires exactly once, after the future is ready.
  ASSERT_EQ(hooked.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(hooked.get().ok());
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(fut.get().status.ok());
}

TEST(QueryService, OnDoneHookFiresForRejectedRequests) {
  SnapshotStore store(TriangleDatabase(2000));
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  QueryService service(&store, opts);
  std::vector<std::future<ServiceResponse>> futs;
  ServiceRequest slow;
  slow.query = TriangleQuery();
  futs.push_back(service.Submit(slow));
  futs.push_back(service.Submit(slow));

  int fired = 0;
  StatusCode seen = StatusCode::kOk;
  for (int i = 0; i < 8; ++i) {
    ServiceRequest req;
    req.query = TriangleQuery();
    req.on_done = [&fired, &seen](const ServiceResponse& resp) {
      ++fired;  // Rejection fires the hook on this (submitting) thread.
      seen = resp.status.code();
    };
    std::future<ServiceResponse> f =
        service.Submit(std::move(req), SubmitPolicy::Reject());
    if (fired > 0) {
      futs.push_back(std::move(f));
      break;
    }
    futs.push_back(std::move(f));
  }
  EXPECT_GE(fired, 1);
  EXPECT_EQ(seen, StatusCode::kResourceExhausted);

  service.CancelAll();
  for (auto& f : futs) f.get();
}

TEST(QueryService, MutationInvalidatesCompiledPrograms) {
  // A compiled program bakes in raw row pointers of the snapshot it was
  // built against; B's epoch in the cache key must retire it when B
  // changes.
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest req;
  req.query = Q("Q(x) :- E(x, y), B(y).");
  ServiceResponse first = service.Submit(req).get();
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_EQ(first.algorithm, "constant-delay-enumeration+vm");
  EXPECT_EQ(Rows(*first.answers), (std::set<Tuple>{{0}, {1}}));

  // B = {0, 1, 2} makes E(2, 0) join, so the answer set grows.
  ASSERT_TRUE(store.Apply({{"B", {{0}}, {}}}).ok());

  ServiceResponse second = service.Submit(req).get();
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_FALSE(second.cache_hit);  // The stale program was not reused.
  EXPECT_EQ(second.algorithm, "constant-delay-enumeration+vm");
  EXPECT_EQ(Rows(*second.answers), (std::set<Tuple>{{0}, {1}, {2}}));
}

TEST(QueryService, HeavyLaneCannotStarveLightQueries) {
  Database db = TriangleDatabase(1500);
  Relation b("B", 1);
  b.Add({0});
  db.PutRelation(std::move(b));
  SnapshotStore store(std::move(db));
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_concurrent_heavy = 1;  // One worker always free for light work.
  opts.max_pending = 64;
  QueryService service(&store, opts);

  // Flood the heavy lane with slow cyclic queries...
  std::vector<std::future<ServiceResponse>> heavy;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest req;
    req.query = TriangleQuery();
    heavy.push_back(service.Submit(std::move(req)));
  }
  // ...and a light free-connex query must still complete promptly.
  ServiceRequest light;
  light.query = Q("Q(x) :- B(x).");
  std::future<ServiceResponse> lf = service.Submit(std::move(light));
  ASSERT_EQ(lf.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  ServiceResponse resp = lf.get();
  EXPECT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_EQ(resp.answers->NumTuples(), 1u);

  service.CancelAll();
  for (auto& f : heavy) f.get();
}

// ---- QueryService: metrics --------------------------------------------------

TEST(QueryService, MetricsCountersMatchIssuedRequests) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  const int kFreeConnex = 5;
  const int kCyclic = 2;
  for (int i = 0; i < kFreeConnex; ++i) {
    ServiceRequest req;
    req.query = Q("Q(x) :- E(x, y), B(y).");
    ASSERT_TRUE(service.Submit(req).get().status.ok());
  }
  for (int i = 0; i < kCyclic; ++i) {
    ServiceRequest req;
    req.query = Q("T(x) :- E(x, y), E(y, z), E(z, x).");
    ASSERT_TRUE(service.Submit(req).get().status.ok());
  }
  MetricsRegistry& m = service.metrics();
  EXPECT_EQ(m.GetCounter("serve.requests").Value(),
            static_cast<uint64_t>(kFreeConnex + kCyclic));
  EXPECT_EQ(m.GetCounter("serve.requests.free-connex").Value(),
            static_cast<uint64_t>(kFreeConnex));
  EXPECT_EQ(m.GetCounter("serve.requests.cyclic").Value(),
            static_cast<uint64_t>(kCyclic));
  // First request of each query misses; repeats hit.
  EXPECT_EQ(m.GetCounter("serve.cache.misses").Value(), 2u);
  EXPECT_EQ(m.GetCounter("serve.cache.hits").Value(),
            static_cast<uint64_t>(kFreeConnex + kCyclic - 2));

  std::string dump = service.StatsDump();
  EXPECT_NE(dump.find("counter serve.requests 7"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram serve.exec_us"), std::string::npos);
  EXPECT_NE(dump.find("cache size="), std::string::npos);
}

TEST(QueryService, ConcurrentStopIsSerialized) {
  // Regression: two threads racing into Stop() both used to pass the
  // "already stopped" guard (stopping_ was set but workers_ not yet
  // cleared) and then join the same std::thread objects concurrently —
  // a double join and a data race on workers_. Stop() now serializes the
  // whole shutdown; under TSan this test fails on the old code.
  for (int round = 0; round < 8; ++round) {
    SnapshotStore store(TinyGraph());
    ServiceOptions opts;
    opts.num_workers = 3;
    QueryService service(&store, opts);
    // Keep workers busy so Stop() has in-flight work to wait for.
    std::vector<std::future<ServiceResponse>> pending;
    for (int i = 0; i < 6; ++i) {
      ServiceRequest req;
      req.query = Q("A(x, y) :- E(x, z), E(z, y).");
      pending.push_back(service.Submit(std::move(req)));
    }
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&service] { service.Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    for (auto& f : pending) {
      // Completed or cancelled — either way the future must resolve.
      f.get();
    }
    service.Stop();  // Still idempotent after the concurrent shutdown.
  }
}

// ---- QueryService: snapshot mode --------------------------------------------

TEST(SnapshotService, ResponsesCarryThePinnedEpoch) {
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(&store, opts);
  ServiceRequest req;
  req.query = Q("Q(x) :- E(x, y), B(y).");
  ServiceResponse r1 = service.Submit(req).get();
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(Rows(*r1.answers), (std::set<Tuple>{{0}, {1}}));

  MutationBatch batch{{"B", {{3}}, {}}};
  ASSERT_TRUE(store.Apply(batch).ok());
  ServiceResponse r2 = service.Submit(req).get();
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_EQ(r2.epoch, 2u);
  EXPECT_FALSE(r2.cache_hit);  // B changed: the plan over {E, B} retired.
  EXPECT_EQ(Rows(*r2.answers), (std::set<Tuple>{{0}, {1}}));
}

TEST(SnapshotService, MutationInvalidatesOnlyPlansOverTouchedRelations) {
  // The acceptance bar for selective invalidation: after mutating E,
  // queries over B alone must keep hitting their cached plan (hit-rate
  // stays > 0 under mutation), while queries over E re-prepare.
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(&store, opts);
  ServiceRequest over_e;
  over_e.query = Q("Q(x, y) :- E(x, y).");
  ServiceRequest over_b;
  over_b.query = Q("P(x) :- B(x).");
  ASSERT_TRUE(service.Submit(over_e).get().status.ok());
  ASSERT_TRUE(service.Submit(over_b).get().status.ok());

  for (int round = 0; round < 3; ++round) {
    MutationBatch batch{
        {"E", {{static_cast<Value>(10 + round), 0}}, {}}};
    ASSERT_TRUE(store.Apply(batch).ok());

    ServiceResponse b = service.Submit(over_b).get();
    ASSERT_TRUE(b.status.ok()) << b.status;
    EXPECT_TRUE(b.cache_hit) << "round " << round
                             << ": plan over untouched B was invalidated";

    ServiceResponse e = service.Submit(over_e).get();
    ASSERT_TRUE(e.status.ok()) << e.status;
    EXPECT_FALSE(e.cache_hit) << "round " << round
                              << ": stale plan over mutated E was reused";
    EXPECT_EQ(e.answers->NumTuples(), 5u + round);
  }
  EXPECT_GT(service.cache().hits(), 0u);
}

TEST(SnapshotService, AddedRelationServesQueriesAndKeepsOtherPlansCached) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest over_c;
  over_c.query = Q("Q(x) :- E(x, y), C(y).");
  ServiceRequest over_b;
  over_b.query = Q("P(x) :- B(x).");
  ASSERT_TRUE(service.Submit(over_b).get().status.ok());

  // C does not exist yet: the query fails and nothing is cached for it.
  ServiceResponse absent = service.Submit(over_c).get();
  EXPECT_FALSE(absent.status.ok());

  Relation c("C", 1);
  c.Add({3});
  ASSERT_TRUE(store.AddRelation(std::move(c)).ok());

  ServiceResponse present = service.Submit(over_c).get();
  ASSERT_TRUE(present.status.ok()) << present.status;
  EXPECT_FALSE(present.cache_hit);
  EXPECT_EQ(present.epoch, 2u);
  EXPECT_EQ(Rows(*present.answers), (std::set<Tuple>{{0}}));

  // Adding C bumped only C's epoch: the plan over B still hits.
  ServiceResponse b = service.Submit(over_b).get();
  ASSERT_TRUE(b.status.ok()) << b.status;
  EXPECT_TRUE(b.cache_hit);
}

TEST(SnapshotService, NoStalePlanWindowUnderConcurrentMutation) {
  // Regression for the stale-plan read window: a request that raced a
  // mutation used to key its plan on one version but execute over newer
  // relation payloads, yielding answers from a torn mix of epochs. In
  // snapshot mode each response must be exactly the state of *its* epoch:
  // batch k inserts {k}, so at epoch e the answers are {0, ..., e-1} —
  // nothing in between, nothing torn.
  Database db;
  Relation r("R", 1);
  r.Add({0});
  db.PutRelation(std::move(r));
  SnapshotStore store(std::move(db));
  ServiceOptions opts;
  opts.num_workers = 3;
  QueryService service(&store, opts);
  constexpr uint64_t kBatches = 60;

  std::thread writer([&store] {
    for (uint64_t k = 1; k <= kBatches; ++k) {
      MutationBatch batch{{"R", {{static_cast<Value>(k)}}, {}}};
      ASSERT_TRUE(store.Apply(batch).ok());
    }
  });
  uint64_t last_epoch = 0;
  for (int i = 0; i < 120; ++i) {
    ServiceRequest req;
    req.query = Q("Q(x) :- R(x).");
    ServiceResponse resp = service.Submit(req).get();
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    ASSERT_GE(resp.epoch, 1u);
    ASSERT_LE(resp.epoch, 1u + kBatches);
    EXPECT_GE(resp.epoch, last_epoch);  // Futures resolve in submit order
    last_epoch = resp.epoch;            // here (single submitter).
    std::set<Tuple> want;
    for (uint64_t v = 0; v < resp.epoch; ++v) {
      want.insert({static_cast<Value>(v)});
    }
    EXPECT_EQ(Rows(*resp.answers), want) << "epoch " << resp.epoch;
  }
  writer.join();
}

// ---- QueryService: bounded hits answer on the submitting thread -----------

/// Submits `req` and reports how it was answered: `inline_answer` when the
/// future was ready as Submit returned and the on_done hook ran on this
/// thread; false when the hook ran on a worker.
struct Submitted {
  ServiceResponse resp;
  bool ready_on_return = false;
  bool hook_on_caller = false;
  bool inline_answer() const { return ready_on_return && hook_on_caller; }
};

Submitted SubmitAndWatch(QueryService& service, ServiceRequest req,
                         SubmitPolicy policy = SubmitPolicy()) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{false};
  std::atomic<bool> fired{false};
  req.on_done = [caller, &on_caller, &fired](const ServiceResponse&) {
    on_caller.store(std::this_thread::get_id() == caller);
    fired.store(true, std::memory_order_release);  // Last touch of ours.
  };
  std::future<ServiceResponse> fut = service.Submit(std::move(req), policy);
  Submitted out;
  out.ready_on_return =
      fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  out.resp = fut.get();
  while (!fired.load(std::memory_order_acquire)) std::this_thread::yield();
  out.hook_on_caller = on_caller.load();
  return out;
}

ServiceRequest Req(const std::string& text, ServeVerb verb = ServeVerb::kRows,
                   uint64_t limit = 0) {
  ServiceRequest req;
  req.query = Q(text);
  req.verb = verb;
  req.limit = limit;
  return req;
}

TEST(InlineHits, BoundedHitsAnswerOnTheSubmittingThread) {
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(&store, opts);
  const std::string program = "Q(x, y) :- E(x, y).";           // free-connex
  const std::string materialized = "Q(x, z) :- E(x, y), E(y, z).";
  const std::string boolean = "Q() :- E(x, y), B(y).";
  // Warm each entry on a worker; the count verb's warm-up fills the
  // counting memo slot of the program entry.
  for (ServiceRequest warm : {Req(program), Req(materialized), Req(boolean),
                              Req(program, ServeVerb::kCount)}) {
    Submitted w = SubmitAndWatch(service, std::move(warm));
    ASSERT_TRUE(w.resp.status.ok()) << w.resp.status;
    EXPECT_FALSE(w.hook_on_caller);
  }
  MetricsRegistry& m = service.metrics();
  const uint64_t queued =
      m.GetHistogram("serve.queue_wait_us", Histogram::LatencyBounds())
          .TotalCount();
  EXPECT_EQ(queued, 4u);

  struct Case {
    ServiceRequest req;
    size_t rows;  // Answer rows (the count for the count verb).
  };
  std::vector<Case> cases;
  cases.push_back({Req(program, ServeVerb::kRows, 2), 2});
  cases.push_back({Req(program, ServeVerb::kRows, kInlineRowLimit), 4});
  cases.push_back({Req(materialized), 4});
  cases.push_back({Req(materialized, ServeVerb::kRows, 1), 1});
  cases.push_back({Req(program, ServeVerb::kCount), 4});
  cases.push_back({Req(boolean), 1});
  for (Case& c : cases) {
    const std::string what = c.req.query.ToString();
    Submitted got = SubmitAndWatch(service, std::move(c.req));
    ASSERT_TRUE(got.resp.status.ok()) << what << ": " << got.resp.status;
    EXPECT_TRUE(got.ready_on_return) << what;
    EXPECT_TRUE(got.hook_on_caller) << what;
    EXPECT_TRUE(got.resp.cache_hit) << what;
    EXPECT_EQ(got.resp.queue_wait.count(), 0) << what;
    EXPECT_EQ(got.resp.epoch, 1u) << what;
    if (got.resp.answers) {
      EXPECT_EQ(got.resp.answers->NumTuples(), c.rows) << what;
    } else {
      EXPECT_EQ(got.resp.count, BigInt(static_cast<int64_t>(c.rows))) << what;
    }
  }
  EXPECT_EQ(m.GetCounter("serve.inline_hits").Value(), cases.size());
  EXPECT_EQ(m.GetCounter("serve.requests").Value(), 4u + cases.size());
  // One counted lookup per request: three warm-up misses, the count
  // warm-up's hit on the rows verb's entry, and every inline hit.
  EXPECT_EQ(m.GetCounter("serve.cache.misses").Value(), 3u);
  EXPECT_EQ(m.GetCounter("serve.cache.hits").Value(), 1u + cases.size());
  EXPECT_EQ(service.cache().misses(), 3u);
  EXPECT_EQ(service.cache().hits(), 1u + cases.size());
  // Inline requests observe exec_us but never queue_wait_us.
  EXPECT_EQ(m.GetHistogram("serve.queue_wait_us", Histogram::LatencyBounds())
                .TotalCount(),
            queued);
  EXPECT_EQ(m.GetHistogram("serve.exec_us", Histogram::LatencyBounds())
                .TotalCount(),
            4u + cases.size());
}

TEST(InlineHits, UnboundedRequestsRunOnAWorker) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  const std::string program = "Q(x, y) :- E(x, y).";
  std::vector<ServiceRequest> cases;
  cases.push_back(Req(program));                          // A miss.
  cases.push_back(Req(program, ServeVerb::kCount));       // Empty memo slot.
  cases.push_back(Req(program));                          // Unlimited rows.
  cases.push_back(Req(program, ServeVerb::kRows, kInlineRowLimit + 1));
  for (ServiceRequest& req : cases) {
    Submitted got = SubmitAndWatch(service, std::move(req));
    ASSERT_TRUE(got.resp.status.ok()) << got.resp.status;
    EXPECT_FALSE(got.hook_on_caller);
    EXPECT_EQ(got.resp.answers ? got.resp.answers->NumTuples() : 4u, 4u);
  }
  EXPECT_EQ(service.metrics().GetCounter("serve.inline_hits").Value(), 0u);
  EXPECT_EQ(service.cache().hits() + service.cache().misses(), cases.size());
  EXPECT_EQ(service.cache().misses(), 1u);
}

TEST(InlineHits, BoundedHitOvertakesASlowRequest) {
  Database db = TriangleDatabase(2000);
  const Database tiny = TinyGraph();
  db.AddRelation(*tiny.Find("E").value());
  SnapshotStore store(std::move(db));
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&store, opts);
  ServiceRequest warm = Req("Q(x, y) :- E(x, y).");
  ASSERT_TRUE(service.Submit(warm).get().status.ok());

  // The single worker takes the slow cyclic query...
  ServiceRequest slow;
  slow.query = TriangleQuery();
  std::future<ServiceResponse> slow_fut = service.Submit(std::move(slow));
  // ...and a bounded hit is answered anyway, before it.
  Submitted hit = SubmitAndWatch(
      service, Req("Q(x, y) :- E(x, y).", ServeVerb::kRows, 3));
  ASSERT_TRUE(hit.resp.status.ok()) << hit.resp.status;
  EXPECT_TRUE(hit.inline_answer());
  EXPECT_EQ(hit.resp.answers->NumTuples(), 3u);
  EXPECT_NE(slow_fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  service.CancelAll();
  EXPECT_EQ(slow_fut.get().status.code(), StatusCode::kCancelled);
}

TEST(InlineHits, CachedSubmitAfterStopIsCancelled) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest warm = Req("Q(x, z) :- E(x, y), E(y, z).");
  ASSERT_TRUE(service.Submit(warm).get().status.ok());
  service.Stop();
  Submitted after = SubmitAndWatch(service, warm);
  EXPECT_EQ(after.resp.status.code(), StatusCode::kCancelled)
      << after.resp.status;
  EXPECT_TRUE(after.inline_answer());  // Rejected on the caller's thread.
  EXPECT_FALSE(after.resp.cache_hit);
  EXPECT_EQ(service.metrics().GetCounter("serve.inline_hits").Value(), 0u);
}

TEST(InlineHits, ExpiredDeadlineOnABoundedHitIsReported) {
  SnapshotStore store(TinyGraph());
  QueryService service(&store);
  ServiceRequest req = Req("Q(x, y) :- E(x, y).", ServeVerb::kRows, 2);
  ASSERT_TRUE(service.Submit(req).get().status.ok());
  req.timeout = std::chrono::nanoseconds(1);
  ServiceResponse late = service.Submit(req).get();
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded) << late.status;
  // Failed at admission, before any lookup: one counted lookup in all.
  EXPECT_EQ(service.cache().hits() + service.cache().misses(), 1u);
}

TEST(InlineHits, ConcurrentHitsMutationsAndCacheClears) {
  // Hits answered on the submitting threads race a writer (whose epochs
  // retire the entry) and cache clears (which drop it between a peek and
  // its counted touch). Run under TSan; every answer must still be the
  // state of its own epoch, and every request counts one lookup.
  Database db;
  Relation r("R", 1);
  r.Add({0});
  db.PutRelation(std::move(r));
  SnapshotStore store(std::move(db));
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_pending = 256;
  QueryService service(&store, opts);
  constexpr uint64_t kBatches = 40;
  constexpr int kClients = 3;
  constexpr int kPerClient = 400;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t k = 1; k <= kBatches; ++k) {
      MutationBatch batch{{"R", {{static_cast<Value>(k)}}, {}}};
      ASSERT_TRUE(store.Apply(batch).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::thread clearer([&] {
    while (!done.load()) {
      service.cache().Clear();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        ServiceRequest req = Req("Q(x) :- R(x).",
                                 (i + c) % 2 ? ServeVerb::kCount
                                             : ServeVerb::kRows,
                                 kInlineRowLimit);
        ServiceResponse resp = service.Submit(std::move(req)).get();
        const bool ok =
            resp.status.ok() &&
            (resp.answers ? resp.answers->NumTuples() == resp.epoch
                          : resp.count == BigInt(static_cast<int64_t>(
                                              resp.epoch)));
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  writer.join();
  done.store(true);
  clearer.join();
  EXPECT_EQ(failures.load(), 0);
  MetricsRegistry& m = service.metrics();
  const uint64_t requests = static_cast<uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(m.GetCounter("serve.requests").Value(), requests);
  EXPECT_EQ(service.cache().hits() + service.cache().misses(), requests);
  EXPECT_EQ(m.GetCounter("serve.cache.hits").Value(), service.cache().hits());
  EXPECT_EQ(m.GetCounter("serve.cache.misses").Value(),
            service.cache().misses());
  EXPECT_GT(m.GetCounter("serve.inline_hits").Value(), 0u);
  EXPECT_LE(m.GetCounter("serve.inline_hits").Value(), service.cache().hits());
}

}  // namespace
}  // namespace fgq
