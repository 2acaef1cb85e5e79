#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fgq/count/acq_count.h"
#include "fgq/count/semiring.h"
#include "fgq/eval/engine.h"
#include "fgq/net/protocol.h"
#include "fgq/query/parser.h"
#include "fgq/serve/plan_cache.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/trace.h"
#include "fgq/util/random.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseConjunctiveQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

Database RandomDbFor(const ConjunctiveQuery& q, size_t tuples, Value domain,
                     uint64_t seed) {
  Rng rng(seed);
  Database db;
  for (const Atom& a : q.atoms()) {
    if (!db.Has(a.relation)) {
      db.PutRelation(
          RandomRelation(a.relation, a.arity(), tuples, domain, &rng));
    }
  }
  db.DeclareDomainSize(domain);
  return db;
}

// ---- Algebraic laws (the contract semiring.h states and the differ and
// ---- the join-tree DP both assume) --------------------------------------

/// Checks every semiring law on a sample of values. `S` is the instance,
/// `gen(i)` produces the i-th sample value.
template <typename S, typename Gen>
void CheckLaws(const S& s, Gen gen, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const auto a = gen(i);
    // Identities and annihilation.
    EXPECT_EQ(s.Plus(a, s.Zero()), a);
    EXPECT_EQ(s.Plus(s.Zero(), a), a);
    EXPECT_EQ(s.Times(a, s.One()), a);
    EXPECT_EQ(s.Times(s.One(), a), a);
    EXPECT_EQ(s.Times(a, s.Zero()), s.Zero());
    EXPECT_EQ(s.Times(s.Zero(), a), s.Zero());
    for (size_t j = 0; j < n; ++j) {
      const auto b = gen(j);
      // Commutativity.
      EXPECT_EQ(s.Plus(a, b), s.Plus(b, a));
      EXPECT_EQ(s.Times(a, b), s.Times(b, a));
      for (size_t k = 0; k < n; ++k) {
        const auto c = gen(k);
        // Associativity.
        EXPECT_EQ(s.Plus(s.Plus(a, b), c), s.Plus(a, s.Plus(b, c)));
        EXPECT_EQ(s.Times(s.Times(a, b), c), s.Times(a, s.Times(b, c)));
        // Distributivity.
        EXPECT_EQ(s.Times(a, s.Plus(b, c)),
                  s.Plus(s.Times(a, b), s.Times(a, c)));
      }
    }
  }
}

TEST(SemiringLaws, Boolean) {
  CheckLaws(BooleanSemiring{}, [](size_t i) { return i % 2 == 0; }, 2);
}

TEST(SemiringLaws, CountingSmall) {
  Rng rng(7);
  std::vector<BigInt> vals;
  for (size_t i = 0; i < 6; ++i) {
    vals.push_back(BigInt(static_cast<int64_t>(rng.Next() % 1000)));
  }
  CheckLaws(CountingSemiring{}, [&](size_t i) { return vals[i]; },
            vals.size());
}

TEST(SemiringLaws, CountingBigIntOverflowEdges) {
  // Values straddling the uint64 boundary: products and sums must be
  // exact, not wrapped. 2^64 = 18446744073709551616.
  const BigInt two_63 = BigInt::Pow2(63);
  std::vector<BigInt> vals = {BigInt(0), BigInt(1), two_63, two_63 + BigInt(1),
                              two_63 * BigInt(3)};
  CheckLaws(CountingSemiring{}, [&](size_t i) { return vals[i]; },
            vals.size());
  CountingSemiring s;
  EXPECT_EQ(s.Plus(two_63, two_63).ToString(), "18446744073709551616");
  EXPECT_EQ(s.Times(two_63, BigInt(2)).ToString(), "18446744073709551616");
}

TEST(SemiringLaws, MinPlusNonSaturatedRange) {
  // On the non-saturated range the tropical laws are exact; include the
  // absorbing infinity itself.
  std::vector<int64_t> vals = {MinPlusSemiring::kInfinity, 0, 1, -5, 1000,
                               1ll << 40, -(1ll << 40)};
  CheckLaws(MinPlusSemiring{}, [&](size_t i) { return vals[i]; },
            vals.size());
}

TEST(SemiringLaws, MinPlusSaturationEdges) {
  MinPlusSemiring s;
  // Infinity absorbs even where a finite add would saturate.
  EXPECT_EQ(s.Times(s.Zero(), INT64_MAX - 1), s.Zero());
  // Finite saturation clamps instead of wrapping (UB-free under UBSan).
  EXPECT_EQ(SaturatingAdd(INT64_MAX - 1, 10), INT64_MAX);
  EXPECT_EQ(SaturatingAdd(INT64_MIN + 1, -10), INT64_MIN);
  // The clamp keeps ⊗ monotone, which is what distributivity over min
  // needs: a + min(b,c) == min(a+b, a+c) under saturation.
  const int64_t big = INT64_MAX - 5;
  EXPECT_EQ(s.Times(big, s.Plus(10, 20)),
            s.Plus(s.Times(big, 10), s.Times(big, 20)));
}

TEST(SemiringLaws, MaxMin) {
  std::vector<int64_t> vals = {MaxMinSemiring::kNegInfinity, INT64_MAX, 0,
                               -3, 7, 1ll << 50};
  CheckLaws(MaxMinSemiring{}, [&](size_t i) { return vals[i]; }, vals.size());
}

TEST(SemiringLaws, TopKTruncationCoherent) {
  // Truncation must commute with the operations: min-k of a union/sumset
  // depends only on the min-k of the operands. The law check runs on
  // random already-normalized (sorted, distinct, <= k) vectors.
  for (size_t k : {1u, 2u, 4u}) {
    TopKSemiring s(k);
    Rng rng(1000 + k);
    std::vector<std::vector<int64_t>> vals;
    vals.push_back({});  // Zero itself.
    for (size_t i = 0; i < 5; ++i) {
      std::vector<int64_t> v;
      const size_t len = rng.Next() % (k + 1);
      for (size_t j = 0; j < len; ++j) {
        v.push_back(static_cast<int64_t>(rng.Next() % 50));
      }
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      vals.push_back(std::move(v));
    }
    CheckLaws(s, [&](size_t i) { return vals[i]; }, vals.size());
  }
}

TEST(SemiringLaws, TopKTruncatesToKDistinct) {
  TopKSemiring s(2);
  EXPECT_EQ(s.Plus({1, 3}, {2, 4}), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(s.Plus({1, 3}, {1, 3}), (std::vector<int64_t>{1, 3}));  // Dedup.
  EXPECT_EQ(s.Times({0, 1}, {0, 1}), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(s.Times({10, 20}, {1, 2}), (std::vector<int64_t>{11, 12}));
}

// ---- SemiringValue encode/decode ----------------------------------------

TEST(SemiringValue, EncodeDecodeRoundTrip) {
  const SemiringValue vals[] = {
      SemiringValue::Counting(BigInt::Pow2(70)),
      SemiringValue::Counting(BigInt(0)),
      SemiringValue::Boolean(true),
      SemiringValue::Boolean(false),
      SemiringValue::MinPlus(42),
      SemiringValue::MinPlus(MinPlusSemiring::kInfinity),
      SemiringValue::MaxMin(-7),
      SemiringValue::MaxMin(MaxMinSemiring::kNegInfinity),
      SemiringValue::TopK({3, 7, 9}),
      SemiringValue::TopK({}),
  };
  for (const SemiringValue& v : vals) {
    auto back = SemiringValue::Decode(v.id, v.Encode());
    ASSERT_TRUE(back.ok()) << v.Encode() << ": " << back.status();
    EXPECT_EQ(*back, v) << v.Encode();
  }
  EXPECT_EQ(SemiringValue::MinPlus(MinPlusSemiring::kInfinity).Encode(),
            "inf");
  EXPECT_EQ(SemiringValue::TopK({3, 7, 9}).Encode(), "[3,7,9]");
  EXPECT_EQ(SemiringValue::TopK({}).Encode(), "[]");
}

TEST(SemiringValue, DecodeRejectsMalformed) {
  EXPECT_FALSE(SemiringValue::Decode(SemiringId::kCounting, "12x").ok());
  EXPECT_FALSE(SemiringValue::Decode(SemiringId::kBoolean, "yes").ok());
  EXPECT_FALSE(SemiringValue::Decode(SemiringId::kMinPlus, "").ok());
  EXPECT_FALSE(SemiringValue::Decode(SemiringId::kTopK, "[1,").ok());
  EXPECT_FALSE(SemiringValue::Decode(SemiringId::kTopK, "1,2").ok());
}

TEST(SemiringValue, NamesRoundTrip) {
  for (uint8_t i = 0; i < kNumSemirings; ++i) {
    const SemiringId id = static_cast<SemiringId>(i);
    auto back = ParseSemiring(SemiringName(id));
    ASSERT_TRUE(back.has_value()) << SemiringName(id);
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(ParseSemiring("tropical").has_value());
  EXPECT_FALSE(IsValidSemiringId(kNumSemirings));
}

// ---- The DP against hand-computed aggregates ----------------------------

TEST(SemiringSum, HandComputedPath) {
  // E = {(1,2),(2,3),(2,4)}; Q(x,y,z) :- E(x,y),F(y,z) with F = E has
  // answers (1,2,3) and (1,2,4).
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({2, 3});
  e.Add({2, 4});
  db.PutRelation(e);
  Relation f = e;
  f.set_name("F");
  db.PutRelation(f);
  const ConjunctiveQuery q = Q("Q(x, y, z) :- E(x, y), F(y, z).");

  auto run = [&](SemiringId id) {
    auto r = SemiringSumAcq(q, db, id);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  };
  EXPECT_EQ(run(SemiringId::kCounting), SemiringValue::Counting(BigInt(2)));
  EXPECT_EQ(run(SemiringId::kBoolean), SemiringValue::Boolean(true));
  // Costs: 1+2+3 = 6 and 1+2+4 = 7.
  EXPECT_EQ(run(SemiringId::kMinPlus), SemiringValue::MinPlus(6));
  // Bottlenecks: min(1,2,3) = 1 and min(1,2,4) = 1; max = 1.
  EXPECT_EQ(run(SemiringId::kMaxMin), SemiringValue::MaxMin(1));
  EXPECT_EQ(run(SemiringId::kTopK), SemiringValue::TopK({6, 7}));
}

TEST(SemiringSum, ExistentialsContributePresenceOnly) {
  // Q(x) :- E(x, y): y is projected away. x = 1 has two witnesses; a
  // naive DP would count it twice / add y's weight. The S-component
  // rewrite must dedup (answers {1, 5}).
  Database db;
  Relation e("E", 2);
  e.Add({1, 100});
  e.Add({1, 200});
  e.Add({5, 300});
  db.PutRelation(e);
  const ConjunctiveQuery q = Q("Q(x) :- E(x, y).");

  auto counting = SemiringSumAcq(q, db, SemiringId::kCounting);
  ASSERT_TRUE(counting.ok()) << counting.status();
  EXPECT_EQ(*counting, SemiringValue::Counting(BigInt(2)));
  auto mp = SemiringSumAcq(q, db, SemiringId::kMinPlus);
  ASSERT_TRUE(mp.ok()) << mp.status();
  EXPECT_EQ(*mp, SemiringValue::MinPlus(1));  // Weight of x=1 only.
  auto tk = SemiringSumAcq(q, db, SemiringId::kTopK);
  ASSERT_TRUE(tk.ok()) << tk.status();
  EXPECT_EQ(*tk, SemiringValue::TopK({1, 5}));
}

TEST(SemiringSum, RepeatedVariableInOneAtomWeighsOnce) {
  // Q(x) :- E(x, x): x occupies two columns of its owning atom, but it is
  // one variable and must contribute one weight factor — the min-plus
  // cost of answer (3) is 3, not 6. (Invisible under counting, where
  // 1 * 1 = 1; this pins the first-column-only ownership rule.)
  Database db;
  Relation e("E", 2);
  e.Add({3, 3});
  e.Add({3, 4});
  db.PutRelation(e);
  const ConjunctiveQuery q = Q("Q(x) :- E(x, x).");
  auto mp = SemiringSumAcq(q, db, SemiringId::kMinPlus);
  ASSERT_TRUE(mp.ok()) << mp.status();
  EXPECT_EQ(*mp, SemiringValue::MinPlus(3));
  auto c = SemiringSumAcq(q, db, SemiringId::kCounting);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(*c, SemiringValue::Counting(BigInt(1)));
}

TEST(SemiringSum, EmptyAnswerSetIsZero) {
  Database db;
  db.PutRelation(Relation("E", 2));
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y).");
  EXPECT_EQ(*SemiringSumAcq(q, db, SemiringId::kCounting),
            SemiringValue::Counting(BigInt(0)));
  EXPECT_EQ(*SemiringSumAcq(q, db, SemiringId::kBoolean),
            SemiringValue::Boolean(false));
  EXPECT_EQ(*SemiringSumAcq(q, db, SemiringId::kMinPlus),
            SemiringValue::MinPlus(MinPlusSemiring::kInfinity));
  EXPECT_EQ(*SemiringSumAcq(q, db, SemiringId::kMaxMin),
            SemiringValue::MaxMin(MaxMinSemiring::kNegInfinity));
  EXPECT_EQ(*SemiringSumAcq(q, db, SemiringId::kTopK),
            SemiringValue::TopK({}));
}

// ---- One engine, five semirings -----------------------------------------

TEST(EngineSumProduct, AllSemiringsAgreeWithFold) {
  const ConjunctiveQuery queries[] = {
      Q("Q(x, y) :- R(x, y), S(y, z)."),        // Free-connex, existential.
      Q("Q() :- R(x, y), S(y, z)."),            // Boolean.
      Q("Q(x, z) :- R(x, y), S(y, z), T(z)."),  // General acyclic.
      Q("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)."),  // Cyclic (fold path).
  };
  Engine engine{ExecOptions::Serial()};
  for (const ConjunctiveQuery& q : queries) {
    Database db = RandomDbFor(q, 24, 5, 99);
    Result<ExecResult> answers = engine.Run(ExecRequest(q, db));
    ASSERT_TRUE(answers.ok()) << answers.status();
    for (uint8_t i = 0; i < kNumSemirings; ++i) {
      const SemiringId id = static_cast<SemiringId>(i);
      Result<SemiringValue> want =
          FoldAnswersSemiring(q, answers->answers, id);
      ASSERT_TRUE(want.ok()) << want.status();
      ExecRequest req(q, db);
      req.semiring = id;
      Result<SemiringValue> got = engine.SumProduct(req);
      ASSERT_TRUE(got.ok())
          << q.ToString() << " " << SemiringName(id) << ": " << got.status();
      EXPECT_EQ(*got, *want) << q.ToString() << " " << SemiringName(id);
    }
  }
}

TEST(EngineSumProduct, CrossSemiringConsistency) {
  // Boolean == (count > 0), and min-plus over an all-zero-weight database
  // collapses to the Boolean semiring (0 if satisfiable, inf otherwise).
  const ConjunctiveQuery q = Q("Q(x, y) :- R(x, y), S(y, x).");
  Engine engine{ExecOptions::Serial()};
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Database db = RandomDbFor(q, seed == 1 ? 0 : 16, 4, 3000 + seed);
    ExecRequest creq(q, db);
    creq.semiring = SemiringId::kCounting;
    ExecRequest breq(q, db);
    breq.semiring = SemiringId::kBoolean;
    Result<SemiringValue> c = engine.SumProduct(creq);
    Result<SemiringValue> b = engine.SumProduct(breq);
    ASSERT_TRUE(c.ok() && b.ok());
    EXPECT_EQ(b->boolean, c->count != BigInt(0));
    EXPECT_EQ(b->Truthy(), c->Truthy());
  }
  // All-zero weights: every tuple value is 0.
  Database zero;
  Relation r("R", 2), s("S", 2);
  r.Add({0, 0});
  s.Add({0, 0});
  zero.PutRelation(r);
  zero.PutRelation(s);
  ExecRequest mreq(q, zero);
  mreq.semiring = SemiringId::kMinPlus;
  Result<SemiringValue> mp = engine.SumProduct(mreq);
  ASSERT_TRUE(mp.ok());
  EXPECT_EQ(*mp, SemiringValue::MinPlus(0));  // Satisfiable <=> cost 0.
}

// ---- Serving: one plan-cache entry, every semiring memoized on it -------

/// Every SemiringId aggregate of `q` over `db`, via Engine::SumProduct.
std::vector<SemiringValue> EngineAggregates(const ConjunctiveQuery& q,
                                            const Database& db) {
  Engine engine{ExecOptions::Serial()};
  std::vector<SemiringValue> out;
  for (uint8_t i = 0; i < kNumSemirings; ++i) {
    ExecRequest req(q, db);
    req.semiring = static_cast<SemiringId>(i);
    Result<SemiringValue> v = engine.SumProduct(req);
    EXPECT_TRUE(v.ok()) << v.status();
    out.push_back(v.ok() ? *v : SemiringValue());
  }
  return out;
}

ServiceResponse CountUnder(QueryService& service, const ConjunctiveQuery& q,
                           SemiringId id, TraceContext* trace = nullptr) {
  ServiceRequest req;
  req.query = q;
  req.verb = ServeVerb::kCount;
  req.semiring = id;
  req.trace = trace;
  return service.Submit(std::move(req)).get();
}

TEST(ServeSemiring, CachedAggregatesPerSemiring) {
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y).");
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({3, 4});
  db.PutRelation(e);
  SnapshotStore store(std::move(db));
  ServiceOptions sopts;
  sopts.num_workers = 1;
  QueryService service(&store, sopts);
  // Interleave semirings twice: every request after the first hits the
  // one entry, and each semiring reads back its own aggregate.
  for (int round = 0; round < 2; ++round) {
    ServiceResponse c = CountUnder(service, q, SemiringId::kCounting);
    ASSERT_TRUE(c.status.ok()) << c.status;
    EXPECT_EQ(c.count.ToString(), "2");
    EXPECT_EQ(c.semiring_value, SemiringValue::Counting(BigInt(2)));
    ServiceResponse b = CountUnder(service, q, SemiringId::kBoolean);
    ASSERT_TRUE(b.status.ok()) << b.status;
    EXPECT_EQ(b.semiring_value, SemiringValue::Boolean(true));
    ServiceResponse m = CountUnder(service, q, SemiringId::kMinPlus);
    ASSERT_TRUE(m.status.ok()) << m.status;
    EXPECT_EQ(m.semiring_value, SemiringValue::MinPlus(3));  // 1 + 2.
    EXPECT_EQ(c.cache_hit, round == 1);
    EXPECT_TRUE(b.cache_hit);
    EXPECT_TRUE(m.cache_hit);
  }
  EXPECT_EQ(service.cache().size(), 1u);
  service.Stop();
}

TEST(ServeSemiring, OnePreparationServesRowsAndEverySemiring) {
  // Figure 1's free-connex query caches a VM program; the 2-path is not
  // free-connex and caches its materialized answers. Either way a rows
  // request prepares the one entry, and the count verb under every
  // semiring reads it.
  Rng rng(5);
  const ConjunctiveQuery queries[] = {Figure1Query(), PathQuery(2)};
  const Database dbs[] = {Figure1Database(400, 60, &rng),
                          PathDatabase(2, 400, 60, &rng)};
  for (size_t c = 0; c < 2; ++c) {
    const ConjunctiveQuery& q = queries[c];
    const std::vector<SemiringValue> want = EngineAggregates(q, dbs[c]);
    SnapshotStore store(dbs[c]);
    ServiceOptions sopts;
    sopts.num_workers = 1;
    QueryService service(&store, sopts);
    ServiceRequest rows;
    rows.query = q;
    ServiceResponse r = service.Submit(std::move(rows)).get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_FALSE(r.cache_hit);
    for (int round = 0; round < 2; ++round) {
      for (uint8_t i = 0; i < kNumSemirings; ++i) {
        const SemiringId id = static_cast<SemiringId>(i);
        TraceContext trace;
        ServiceResponse resp = CountUnder(service, q, id, &trace);
        ASSERT_TRUE(resp.status.ok()) << SemiringName(id) << ": "
                                      << resp.status;
        EXPECT_TRUE(resp.cache_hit) << SemiringName(id);
        // The first count under a semiring runs the stream (a program
        // entry's VM reports its ops); the second reads the memo.
        if (c == 0) {
          EXPECT_EQ(trace.counter("vm.ops") > 0, round == 0)
              << SemiringName(id);
        }
        EXPECT_EQ(resp.semiring_value, want[i])
            << q.ToString() << " " << SemiringName(id);
        if (id == SemiringId::kCounting) {
          EXPECT_EQ(resp.count, want[i].count);
        }
      }
    }
    MetricsRegistry& m = service.metrics();
    EXPECT_EQ(m.GetCounter("serve.cache.misses").Value(), 1u) << q.ToString();
    EXPECT_LE(m.GetCounter("serve.vm.compiled").Value(), 1u) << q.ToString();
    EXPECT_EQ(service.cache().size(), 1u);
    service.Stop();
  }
}

TEST(ServeSemiring, CancelledAggregateIsNotMemoized) {
  Rng rng(7);
  const Database db = Figure1Database(50000, 12500, &rng);
  const ConjunctiveQuery q = Figure1Query();
  SnapshotStore store(db);
  ServiceOptions sopts;
  sopts.num_workers = 1;
  QueryService service(&store, sopts);
  // Prepare the entry; the rows verb leaves every memo slot empty.
  ServiceRequest warm;
  warm.query = q;
  warm.limit = 1;
  ASSERT_TRUE(service.Submit(std::move(warm)).get().status.ok());
  // Top-k folds every answer's weights, so its stream runs long enough
  // for the cancel to land inside it: the request's cache lookup is
  // counted just before the aggregate starts.
  ServiceRequest req;
  req.query = q;
  req.verb = ServeVerb::kCount;
  req.semiring = SemiringId::kTopK;
  std::future<ServiceResponse> fut = service.Submit(std::move(req));
  while (service.cache().hits() + service.cache().misses() < 2) {
    std::this_thread::yield();
  }
  service.CancelAll();
  ServiceResponse cancelled = fut.get();
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled)
      << cancelled.status;
  EXPECT_TRUE(cancelled.cache_hit);

  ExecRequest ereq(q, db);
  ereq.semiring = SemiringId::kTopK;
  Result<SemiringValue> want = Engine(ExecOptions::Serial()).SumProduct(ereq);
  ASSERT_TRUE(want.ok()) << want.status();
  ServiceResponse again = CountUnder(service, q, SemiringId::kTopK);
  ASSERT_TRUE(again.status.ok()) << again.status;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.semiring_value, *want);
  service.Stop();
}

TEST(ServeSemiring, ConcurrentSemiringsShareOneEntry) {
  // Four workers fill and read the memo slots of one entry at once (the
  // TSan build checks the memo mutex).
  Rng rng(9);
  const Database db = Figure1Database(2000, 300, &rng);
  const ConjunctiveQuery q = Figure1Query();
  const std::vector<SemiringValue> want = EngineAggregates(q, db);
  SnapshotStore store(db);
  ServiceOptions sopts;
  sopts.num_workers = 4;
  QueryService service(&store, sopts);
  ServiceRequest warm;
  warm.query = q;
  ASSERT_TRUE(service.Submit(std::move(warm)).get().status.ok());
  constexpr size_t kRequests = 40;
  std::vector<std::future<ServiceResponse>> futs;
  for (size_t r = 0; r < kRequests; ++r) {
    ServiceRequest req;
    req.query = q;
    req.verb = ServeVerb::kCount;
    req.semiring = static_cast<SemiringId>(r % kNumSemirings);
    futs.push_back(service.Submit(std::move(req)));
  }
  for (size_t r = 0; r < kRequests; ++r) {
    ServiceResponse resp = futs[r].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    EXPECT_TRUE(resp.cache_hit);
    EXPECT_EQ(resp.semiring_value, want[r % kNumSemirings]) << r;
  }
  EXPECT_EQ(service.metrics().GetCounter("serve.cache.misses").Value(), 1u);
  service.Stop();
}

// ---- Wire protocol: the trailing semiring byte --------------------------

TEST(WireSemiring, CountRequestRoundTripsEveryId) {
  for (uint8_t i = 0; i < kNumSemirings; ++i) {
    net::Request req;
    req.id = 7;
    req.verb = net::Verb::kCount;
    req.query = "Q() :- E(x, y).";
    req.semiring = static_cast<SemiringId>(i);
    std::string frame;
    net::EncodeRequest(req, &frame);
    net::Request back;
    Status st = net::DecodeRequest(
        reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
        frame.size() - net::kFrameHeaderBytes, &back);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(back.semiring, req.semiring);
    EXPECT_EQ(back.query, req.query);
  }
}

TEST(WireSemiring, LegacyFrameWithoutByteDecodesAsCounting) {
  // A pre-semiring client's count frame has no trailing byte. Rebuild
  // one by stripping the byte and patching the length prefix.
  net::Request req;
  req.id = 9;
  req.verb = net::Verb::kCount;
  req.query = "Q() :- E(x, y).";
  req.semiring = SemiringId::kCounting;
  std::string frame;
  net::EncodeRequest(req, &frame);
  frame.pop_back();
  const uint32_t len =
      static_cast<uint32_t>(frame.size() - net::kFrameHeaderBytes);
  frame[4] = static_cast<char>(len & 0xff);
  frame[5] = static_cast<char>((len >> 8) & 0xff);
  frame[6] = static_cast<char>((len >> 16) & 0xff);
  frame[7] = static_cast<char>((len >> 24) & 0xff);
  net::Request back;
  back.semiring = SemiringId::kTopK;  // Must be reset by the decoder.
  Status st = net::DecodeRequest(
      reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
      frame.size() - net::kFrameHeaderBytes, &back);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(back.semiring, SemiringId::kCounting);
}

TEST(WireSemiring, UnknownSemiringByteRejected) {
  net::Request req;
  req.id = 11;
  req.verb = net::Verb::kCount;
  req.query = "Q() :- E(x).";
  std::string frame;
  net::EncodeRequest(req, &frame);
  frame.back() = static_cast<char>(kNumSemirings);  // First invalid id.
  net::Request back;
  Status st = net::DecodeRequest(
      reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
      frame.size() - net::kFrameHeaderBytes, &back);
  EXPECT_FALSE(st.ok());
}

TEST(WireSemiring, RowsVerbCarriesNoByte) {
  // Non-count verbs must not grow a byte: a rows frame encoded by the
  // new encoder still ends exactly at the query text.
  net::Request req;
  req.id = 13;
  req.verb = net::Verb::kRows;
  req.query = "Q(x) :- E(x).";
  req.semiring = SemiringId::kMinPlus;  // Ignored off the count verb.
  std::string frame;
  net::EncodeRequest(req, &frame);
  const size_t expect = net::kFrameHeaderBytes + 8 + 1 + 4 + 4 + 4 +
                        req.query.size();
  EXPECT_EQ(frame.size(), expect);
}

}  // namespace
}  // namespace fgq
