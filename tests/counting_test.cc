#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "fgq/count/acq_count.h"
#include "fgq/count/fields.h"
#include "fgq/count/matchings.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/star_size.h"
#include "fgq/query/parser.h"
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

// ---- The sum-product fold (Theorem 4.21) --------------------------------------

TEST(CountAcq0, SimpleJoin) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({2, 3});
  e.Add({2, 4});
  db.PutRelation(e);
  Relation f = e;
  f.set_name("F");
  db.PutRelation(f);
  auto ones = [](Value) { return BigInt(1); };
  auto c = SumProductAcq(Q("Q(x, y, z) :- E(x, y), F(y, z)."), db,
                         BigIntField{ones});
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->ToString(), "2");  // (1,2,3), (1,2,4).
}

TEST(CountAcq0, WeightedSumMatchesManualComputation) {
  Database db;
  Relation e("E", 2);
  e.Add({0, 1});
  e.Add({1, 2});
  db.PutRelation(e);
  // Weight w(v) = v + 1; answers (0,1) and (1,2) weigh 1*2 and 2*3.
  auto w = [](Value v) { return static_cast<double>(v + 1); };
  auto c = SumProductAcq(Q("Q(x, y) :- E(x, y)."), db, DoubleField{w});
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(*c, 8.0);
}

TEST(CountAcq0, FieldsAgreeModulo) {
  ConjunctiveQuery q = Q("Q(x, y, z) :- R(x, y), S(y, z), T(z).");
  Database db = RandomDbFor(q, 60, 6, 404);
  auto big =
      SumProductAcq(q, db, BigIntField{[](Value) { return BigInt(1); }});
  auto mod = SumProductAcq(
      q, db, ModField<1000000007>{[](Value) { return uint64_t{1}; }});
  auto i64 =
      SumProductAcq(q, db, Int64Field{[](Value) { return int64_t{1}; }});
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(mod.ok());
  ASSERT_TRUE(i64.ok());
  EXPECT_EQ(big->ToInt64() % 1000000007, static_cast<int64_t>(*mod));
  EXPECT_EQ(big->ToInt64(), *i64);
}

TEST(SumProductAcq, FieldsMatchAHandFoldOverTheAnswers) {
  // Weight w(v) = v + 1 on every head element, on the four shapes the
  // entry compiles: quantified free-connex (directly), not free-connex
  // (through the S-component rewrite), Boolean, and a cross product.
  Rng rng(405);
  Database db;
  db.PutRelation(RandomRelation("R", 2, 40, 6, &rng));
  db.PutRelation(RandomRelation("S", 2, 40, 6, &rng));
  db.PutRelation(RandomRelation("B", 1, 4, 6, &rng));
  constexpr uint64_t kP = 1000000007;
  for (const char* text :
       {"Q(x, y) :- R(x, y), S(y, z).", "Q(x, z) :- R(x, y), S(y, z).",
        "Q() :- R(x, y), S(y, z).", "Q(x, u) :- R(x, y), B(u)."}) {
    const ConjunctiveQuery q = Q(text);
    auto answers = EvaluateYannakakis(q, db);
    ASSERT_TRUE(answers.ok()) << answers.status();
    BigInt want_big(0);
    uint64_t want_mod = 0;
    for (size_t r = 0; r < answers->NumTuples(); ++r) {
      BigInt big(1);
      uint64_t mod = 1;
      for (size_t c = 0; c < answers->arity(); ++c) {
        const Value v = answers->At(r, c);
        big = big * BigInt(v + 1);
        mod = mod * static_cast<uint64_t>(v + 1) % kP;
      }
      want_big = want_big + big;
      want_mod = (want_mod + mod) % kP;
    }
    auto big = SumProductAcq(
        q, db, BigIntField{[](Value v) { return BigInt(v + 1); }});
    auto mod = SumProductAcq(q, db, ModField<kP>{[](Value v) {
                               return static_cast<uint64_t>(v + 1);
                             }});
    ASSERT_TRUE(big.ok()) << text << ": " << big.status();
    ASSERT_TRUE(mod.ok()) << text << ": " << mod.status();
    EXPECT_EQ(*big, want_big) << text;
    EXPECT_EQ(*mod, want_mod) << text;
  }
}

// ---- Star-size counting (Theorem 4.28) ----------------------------------------

struct CountParam {
  std::string query;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

void PrintTo(const CountParam& p, std::ostream* os) { *os << p.query; }

class CountSweep : public ::testing::TestWithParam<CountParam> {};

TEST_P(CountSweep, MatchesOracleCount) {
  const CountParam& p = GetParam();
  ConjunctiveQuery q = Q(p.query);
  Database db = RandomDbFor(q, p.tuples, p.domain, p.seed);
  auto fast = CountAcq(q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto oracle = EvaluateBacktrack(q, db);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(fast->ToString(), std::to_string(oracle->NumTuples()));
}

INSTANTIATE_TEST_SUITE_P(
    AcyclicInstances, CountSweep,
    ::testing::Values(
        // Quantifier-free (pure DP).
        CountParam{"Q(x, y) :- R(x, y).", 30, 6, 51},
        CountParam{"Q(x, y, z) :- R(x, y), S(y, z).", 40, 5, 52},
        CountParam{"Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d).", 40, 4, 53},
        // Free-connex (star size 1).
        CountParam{"Q(x) :- R(x, y).", 30, 6, 54},
        CountParam{"Q(x, y) :- R(x, w), S(y, z), B(z).", 30, 5, 55},
        // Star size 2: the matrix query.
        CountParam{"Q(x, y) :- A(x, z), B(z, y).", 30, 5, 56},
        // Star size 3.
        CountParam{"Q(x1, x2, x3) :- E1(t, x1), E2(t, x2), E3(t, x3).", 25,
                   5, 57},
        // Mixed: component plus quantifier-free part.
        CountParam{"Q(x, y) :- A(x, z), B(z), C(x, y).", 30, 5, 58},
        // Boolean.
        CountParam{"Q() :- R(x, y), S(y, z).", 10, 6, 59},
        // Path with both ends free.
        CountParam{"Q(x1, x4) :- E1(x1, x2), E2(x2, x3), E3(x3, x4).", 30, 4,
                   60}));

TEST(CountAcq, StarQueryAgainstOracleAcrossSizes) {
  for (size_t s = 1; s <= 3; ++s) {
    ConjunctiveQuery q = StarQuery(s);
    Database db = RandomDbFor(q, 20, 5, 70 + s);
    auto fast = CountAcq(q, db);
    ASSERT_TRUE(fast.ok()) << fast.status();
    auto oracle = EvaluateBacktrack(q, db);
    EXPECT_EQ(fast->ToString(), std::to_string(oracle->NumTuples()))
        << "star size " << s;
  }
}

TEST(CountAcq, RejectsCyclic) {
  Database db;
  db.PutRelation(Relation("E", 2));
  db.PutRelation(Relation("F", 2));
  db.PutRelation(Relation("G", 2));
  auto c = CountAcq(Q("Q() :- E(x, y), F(y, z), G(z, x)."), db);
  EXPECT_FALSE(c.ok());
}

TEST(CountAnswers, FallsBackOnCyclicQueries) {
  ConjunctiveQuery q = Q("Q() :- E(x, y), F(y, z), G(z, x).");
  Database db = RandomDbFor(q, 15, 5, 81);
  auto c = CountAnswers(q, db);
  ASSERT_TRUE(c.ok()) << c.status();
  auto oracle = EvaluateBacktrack(q, db);
  EXPECT_EQ(c->ToString(), std::to_string(oracle->NumTuples()));
}

TEST(CountAnswers, EngineCountHonorsTheDeadlineOnCyclicQueries) {
  // The oracle fallback polls req.cancel: a deadline that has already
  // passed surfaces as DeadlineExceeded instead of a completed count.
  ConjunctiveQuery q = Q("Q(x, y, z) :- E(x, y), F(y, z), G(z, x).");
  Database db = RandomDbFor(q, 15, 5, 81);
  ExecRequest req(q, db);
  req.cancel = CancelToken::WithTimeout(std::chrono::nanoseconds(0));
  Result<BigInt> c = Engine().Count(req);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kDeadlineExceeded) << c.status();
}

TEST(WeightedCountAcq, QuantifiedWeighted) {
  // Q(x) :- E(x, y): weight of answer = w(x); sum over distinct x with a
  // successor.
  Database db;
  Relation e("E", 2);
  e.Add({0, 5});
  e.Add({0, 6});
  e.Add({2, 5});
  db.PutRelation(e);
  auto c = WeightedCountAcq(Q("Q(x) :- E(x, y)."), db,
                            [](Value v) { return static_cast<double>(v + 1); });
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_DOUBLE_EQ(*c, 1.0 + 3.0);  // x = 0 and x = 2.
}

TEST(CountAcq0, CrossProductAndDeadGroups) {
  // B shares no variable with R, so its aggregate is one group over every
  // row; C's rows for y = 9 have no partner in R and must not count.
  Database db;
  Relation r("R", 2);
  r.Add({1, 2});
  r.Add({1, 3});
  r.Add({4, 2});
  db.PutRelation(r);
  Relation b("B", 1);
  b.Add({7});
  b.Add({8});
  db.PutRelation(b);
  Relation c("C", 2);
  c.Add({2, 5});
  c.Add({2, 6});
  c.Add({9, 5});
  db.PutRelation(c);
  auto n = CountAcq(Q("Q(x, y, u, z) :- R(x, y), B(u), C(y, z)."), db);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n->ToString(), "8");  // (x,y) in {(1,2),(4,2)}, 2 u, 2 z.
}

// ---- Overflow: the uint64_t carrier reruns in BigInt -------------------------

/// One centre 0 with 2^16 leaves: a star with `leaves` arms counts
/// (2^16)^leaves answers, 2^64 at four arms (exactly where an unchecked
/// uint64_t wraps to 0).
Database StarOverflowDb() {
  Relation e("E", 2);
  for (Value leaf = 1; leaf <= Value{1} << 16; ++leaf) e.Add({0, leaf});
  Database db;
  db.PutRelation(std::move(e));
  return db;
}

ConjunctiveQuery StarOverflowQuery(size_t leaves) {
  std::string head = "Q(t";
  std::string body;
  for (size_t i = 1; i <= leaves; ++i) {
    const std::string x = "x" + std::to_string(i);
    head += ", " + x;
    body += (i == 1 ? "" : ", ") + std::string("E(t, ") + x + ")";
  }
  return Q(head + ") :- " + body + ".");
}

void ExpectExactCount(const ConjunctiveQuery& q, const Database& db,
                      const BigInt& want) {
  auto acq = CountAcq(q, db);
  ASSERT_TRUE(acq.ok()) << acq.status();
  EXPECT_EQ(*acq, want) << acq->ToString();
  auto semiring = SemiringSumAcq(q, db, SemiringId::kCounting);
  ASSERT_TRUE(semiring.ok()) << semiring.status();
  EXPECT_EQ(semiring->count, want) << semiring->count.ToString();
  ExecRequest req(q, db);
  req.semiring = SemiringId::kCounting;
  auto engine = Engine().SumProduct(req);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->count, want) << engine->count.ToString();
}

TEST(CountOverflow, FourLeafStarCountsTwoToThe64) {
  ExpectExactCount(StarOverflowQuery(4), StarOverflowDb(), BigInt::Pow2(64));
}

TEST(CountOverflow, FiveLeafStarCountsTwoToThe80) {
  ExpectExactCount(StarOverflowQuery(5), StarOverflowDb(), BigInt::Pow2(80));
}

TEST(CountOverflow, QuantifiedStarStillExceeds64Bits) {
  // G(x1, z) with z existential: the S-component {G} materializes onto
  // x1 alone (2^16 rows), and two z per leaf must not double the count.
  Database db = StarOverflowDb();
  Relation g("G", 2);
  for (Value leaf = 1; leaf <= Value{1} << 16; ++leaf) {
    g.Add({leaf, 0});
    g.Add({leaf, 1});
  }
  db.PutRelation(std::move(g));
  ConjunctiveQuery q =
      Q("Q(t, x1, x2, x3, x4) :- E(t, x1), E(t, x2), E(t, x3), E(t, x4), "
        "G(x1, z).");
  ExpectExactCount(q, db, BigInt::Pow2(64));
}

// ---- Cancellation reaches the counting pipeline --------------------------------

TEST(CountCancel, EngineCountReturnsTheCancelStatus) {
  Rng rng(7);
  Database db = PathDatabase(2, 200000, 50000, &rng);
  // The quantified 2-path trips in its S-component materialization, the
  // full one in the DP itself.
  for (const ConjunctiveQuery& q : {PathQuery(2), FullPathQuery(2)}) {
    ExecRequest req(q, db);
    req.cancel = CancelToken::Cancellable();
    req.cancel.Cancel();
    Result<BigInt> c = Engine().Count(req);
    ASSERT_FALSE(c.ok()) << q.ToString() << " counted " << c->ToString();
    EXPECT_EQ(c.status().code(), StatusCode::kCancelled) << c.status();
  }
}

// ---- Equation (2): perfect matchings (Section 4.4) -----------------------------

TEST(Matchings, RyserOnKnownGraphs) {
  // Complete bipartite K3,3: 3! = 6 perfect matchings.
  BipartiteGraph k33;
  k33.adj.assign(3, std::vector<bool>(3, true));
  EXPECT_EQ(CountPerfectMatchingsRyser(k33)->ToString(), "6");
  // Identity matrix: exactly 1.
  BipartiteGraph id;
  id.adj.assign(4, std::vector<bool>(4, false));
  for (int i = 0; i < 4; ++i) id.adj[static_cast<size_t>(i)][static_cast<size_t>(i)] = true;
  EXPECT_EQ(CountPerfectMatchingsRyser(id)->ToString(), "1");
  // No edges: 0.
  BipartiteGraph none;
  none.adj.assign(3, std::vector<bool>(3, false));
  EXPECT_EQ(CountPerfectMatchingsRyser(none)->ToString(), "0");
}

TEST(Matchings, QueryIdentityMatchesRyser) {
  Rng rng(31);
  for (size_t n = 1; n <= 4; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      BipartiteGraph g = RandomBipartite(n, 2, &rng);
      auto via_query = CountPerfectMatchingsViaQuery(g);
      auto via_ryser = CountPerfectMatchingsRyser(g);
      ASSERT_TRUE(via_query.ok()) << via_query.status();
      ASSERT_TRUE(via_ryser.ok());
      EXPECT_EQ(via_query->ToString(), via_ryser->ToString())
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(Matchings, PsiHasStarSizeN) {
  for (size_t n = 2; n <= 5; ++n) {
    EXPECT_EQ(QuantifiedStarSize(BuildMatchingPsi(n)), n);
    EXPECT_EQ(QuantifiedStarSize(BuildMatchingPhi(n)), 1u);
  }
}

TEST(Matchings, RyserRejectsLargeN) {
  BipartiteGraph g;
  g.adj.assign(25, std::vector<bool>(25, true));
  EXPECT_FALSE(CountPerfectMatchingsRyser(g).ok());
}

}  // namespace
}  // namespace fgq
