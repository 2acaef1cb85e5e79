#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fgq/eval/enumerate.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/ucq_enum.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/query/parser.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseConjunctiveQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// Checks the enumerator produces exactly the oracle's answers, with no
/// repetitions.
void ExpectEnumeratesExactly(AnswerEnumerator* e, const ConjunctiveQuery& q,
                             const Database& db) {
  std::set<Tuple> seen;
  Tuple t;
  size_t count = 0;
  while (e->Next(&t)) {
    EXPECT_TRUE(seen.insert(t).second) << "duplicate answer";
    ++count;
  }
  auto oracle = EvaluateBacktrack(q, db);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(count, oracle->NumTuples());
  for (const Tuple& answer : seen) {
    EXPECT_TRUE(oracle->Contains(answer));
  }
}

Database TinyGraph() {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({2, 3});
  e.Add({3, 4});
  e.Add({2, 4});
  db.PutRelation(e);
  Relation b("B", 1);
  b.Add({4});
  b.Add({3});
  db.PutRelation(b);
  return db;
}

// ---- Constant-delay enumerator (Theorem 4.6) ---------------------------------

TEST(ConstantDelay, Example45Query) {
  Database db = TinyGraph();
  // phi(x, y) = exists w, z: E(x, w) & E(y, z) & B(z)  — free-connex.
  ConjunctiveQuery q = Q("Q(x, y) :- E(x, w), E(y, z), B(z).");
  auto e = MakeConstantDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  ExpectEnumeratesExactly(e->get(), q, db);
}

TEST(ConstantDelay, RejectsNonFreeConnex) {
  Database db;
  db.PutRelation(Relation("A", 2));
  db.PutRelation(Relation("B", 2));
  auto e = MakeConstantDelayEnumerator(Q("Pi(x, y) :- A(x, z), B(z, y)."), db);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstantDelay, RejectsCyclic) {
  Database db;
  db.PutRelation(Relation("E", 2));
  db.PutRelation(Relation("F", 2));
  db.PutRelation(Relation("G", 2));
  auto e = MakeConstantDelayEnumerator(
      Q("Q(x, y, z) :- E(x, y), F(y, z), G(z, x)."), db);
  EXPECT_FALSE(e.ok());
}

TEST(ConstantDelay, BooleanQueries) {
  Database db = TinyGraph();
  auto t = MakeConstantDelayEnumerator(Q("Q() :- E(x, y)."), db);
  ASSERT_TRUE(t.ok());
  Tuple out;
  EXPECT_TRUE((*t)->Next(&out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE((*t)->Next(&out));

  auto f = MakeConstantDelayEnumerator(Q("Q() :- E(x, x)."), db);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE((*f)->Next(&out));
}

TEST(ConstantDelay, EmptyResult) {
  Database db = TinyGraph();
  auto e = MakeConstantDelayEnumerator(Q("Q(x) :- E(x, x)."), db);
  ASSERT_TRUE(e.ok());
  Tuple out;
  EXPECT_FALSE((*e)->Next(&out));
}

TEST(ConstantDelay, UnaryQuery) {
  Database db = TinyGraph();
  ConjunctiveQuery q = Q("Q(x) :- E(x, y), B(y).");
  auto e = MakeConstantDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  ExpectEnumeratesExactly(e->get(), q, db);
}

TEST(ConstantDelay, Figure1QueryOnRandomData) {
  Rng rng(5);
  Database db = Figure1Database(50, 6, &rng);
  ConjunctiveQuery q = Figure1Query();
  auto e = MakeConstantDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  ExpectEnumeratesExactly(e->get(), q, db);
}

struct EnumParam {
  std::string query;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

void PrintTo(const EnumParam& p, std::ostream* os) { *os << p.query; }

class ConstantDelaySweep : public ::testing::TestWithParam<EnumParam> {};

TEST_P(ConstantDelaySweep, MatchesOracle) {
  const EnumParam& p = GetParam();
  Rng rng(p.seed);
  ConjunctiveQuery q = Q(p.query);
  Database db;
  for (const Atom& a : q.atoms()) {
    if (!db.Has(a.relation)) {
      db.PutRelation(
          RandomRelation(a.relation, a.arity(), p.tuples, p.domain, &rng));
    }
  }
  db.DeclareDomainSize(p.domain);
  auto e = MakeConstantDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  ExpectEnumeratesExactly(e->get(), q, db);
}

INSTANTIATE_TEST_SUITE_P(
    FreeConnexInstances, ConstantDelaySweep,
    ::testing::Values(
        EnumParam{"Q(x, y) :- R(x, y).", 25, 5, 21},
        EnumParam{"Q(x, y) :- R(x, y), S(y, z).", 30, 5, 22},
        EnumParam{"Q(x, y, z) :- R(x, y), S(y, z).", 30, 4, 23},
        EnumParam{"Q(x, y) :- R(x, w), S(y, z), B(z).", 25, 5, 24},
        EnumParam{"Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y), T(y, w).", 30,
                  4, 25},
        EnumParam{"Q(a, b) :- R(a, b), S(b), T(a).", 25, 5, 26},
        EnumParam{"Q(a, b, c) :- R(a, b), S(b, c), T(c), U(a, b, c).", 40,
                  4, 27},
        EnumParam{"Q(x) :- R(x, y), S(y, z).", 30, 5, 28},
        EnumParam{"Q(u, v) :- A(u), B(v).", 15, 6, 29}));

// ---- Linear-delay enumerator (Theorem 4.3 / Algorithm 2) ---------------------

class LinearDelaySweep : public ::testing::TestWithParam<EnumParam> {};

TEST_P(LinearDelaySweep, MatchesOracle) {
  const EnumParam& p = GetParam();
  Rng rng(p.seed);
  ConjunctiveQuery q = Q(p.query);
  Database db;
  for (const Atom& a : q.atoms()) {
    if (!db.Has(a.relation)) {
      db.PutRelation(
          RandomRelation(a.relation, a.arity(), p.tuples, p.domain, &rng));
    }
  }
  db.DeclareDomainSize(p.domain);
  auto e = MakeLinearDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  ExpectEnumeratesExactly(e->get(), q, db);
}

INSTANTIATE_TEST_SUITE_P(
    AcyclicInstances, LinearDelaySweep,
    ::testing::Values(
        // Crucially includes NON-free-connex queries: Algorithm 2 covers
        // every ACQ.
        EnumParam{"Q(x, y) :- A(x, z), B(z, y).", 30, 5, 31},
        EnumParam{"Q(x1, x4) :- E1(x1, x2), E2(x2, x3), E3(x3, x4).", 25, 4,
                  32},
        EnumParam{"Q(x, y) :- R(x, y).", 20, 5, 33},
        EnumParam{"Q(x, y, z) :- A(x, w), B(w, y), C(y, z).", 25, 4, 34},
        EnumParam{"Q(a) :- R(a, b), S(b).", 25, 5, 35}));

TEST(LinearDelay, BooleanQuery) {
  Database db = TinyGraph();
  auto e = MakeLinearDelayEnumerator(Q("Q() :- E(x, y), B(y)."), db);
  ASSERT_TRUE(e.ok());
  Tuple out;
  EXPECT_TRUE((*e)->Next(&out));
  EXPECT_FALSE((*e)->Next(&out));
}

TEST(LinearDelay, RejectsComparisons) {
  Database db = TinyGraph();
  auto e = MakeLinearDelayEnumerator(Q("Q(x, y) :- E(x, y), x != y."), db);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kUnsupported);
}

// ---- Materialized baseline ----------------------------------------------------

TEST(Materialized, ReplaysRelation) {
  Relation r("R", 2);
  r.Add({1, 2});
  r.Add({3, 4});
  auto e = MakeMaterializedEnumerator(r);
  Tuple t;
  EXPECT_TRUE(e->Next(&t));
  EXPECT_TRUE(e->Next(&t));
  EXPECT_FALSE(e->Next(&t));
}

TEST(Materialized, DrainEnumerator) {
  Relation r("R", 1);
  r.Add({2});
  r.Add({1});
  auto e = MakeMaterializedEnumerator(r);
  Relation out = DrainEnumerator(e.get(), "out", 1);
  EXPECT_EQ(out.NumTuples(), 2u);
}

// ---- Union enumeration (Theorem 4.13) -----------------------------------------

TEST(UnionEnum, AllFreeConnexDisjuncts) {
  Database db = TinyGraph();
  auto u = ParseUnionQuery(
      "Q(x, y) :- E(x, y).\n"
      "Q(a, b) :- E(a, w), E(b, z), B(z).");
  ASSERT_TRUE(u.ok());
  auto e = MakeUnionEnumerator(*u, db);
  ASSERT_TRUE(e.ok()) << e.status();
  std::set<Tuple> seen;
  Tuple t;
  while ((*e)->Next(&t)) {
    EXPECT_TRUE(seen.insert(t).second) << "duplicate in union";
  }
  // Union semantics against the two oracles.
  auto o1 = EvaluateBacktrack(u->disjuncts[0], db);
  auto o2 = EvaluateBacktrack(u->disjuncts[1], db);
  std::set<Tuple> expected;
  for (size_t i = 0; i < o1->NumTuples(); ++i) {
    expected.insert(o1->Row(i).ToTuple());
  }
  for (size_t i = 0; i < o2->NumTuples(); ++i) {
    expected.insert(o2->Row(i).ToTuple());
  }
  EXPECT_EQ(seen, expected);
}

TEST(UnionEnum, Equation1UnionExtension) {
  // The paper's Equation (1): phi1 is NOT free-connex, but phi2 provides
  // {x, z, y} and repairs it.
  auto u = ParseUnionQuery(
      "Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w).\n"
      "Q(x, y, w) :- R1(x, y), R2(y, w).");
  ASSERT_TRUE(u.ok());
  EXPECT_FALSE(IsFreeConnex(u->disjuncts[0]));
  EXPECT_TRUE(IsFreeConnex(u->disjuncts[1]));

  Rng rng(77);
  Database db;
  db.PutRelation(RandomRelation("R1", 2, 30, 5, &rng));
  db.PutRelation(RandomRelation("R2", 2, 30, 5, &rng));
  db.PutRelation(RandomRelation("R3", 2, 30, 5, &rng));
  db.DeclareDomainSize(5);

  auto e = MakeUnionEnumerator(*u, db);
  ASSERT_TRUE(e.ok()) << e.status();
  std::set<Tuple> seen;
  Tuple t;
  while ((*e)->Next(&t)) {
    EXPECT_TRUE(seen.insert(t).second);
  }
  std::set<Tuple> expected;
  for (const ConjunctiveQuery& d : u->disjuncts) {
    auto o = EvaluateBacktrack(d, db);
    ASSERT_TRUE(o.ok());
    for (size_t i = 0; i < o->NumTuples(); ++i) {
      expected.insert(o->Row(i).ToTuple());
    }
  }
  EXPECT_EQ(seen, expected);
}

TEST(UnionEnum, ProvidesVariablesOnEquation1) {
  auto u = ParseUnionQuery(
      "Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w).\n"
      "Q(x, y, w) :- R1(x, y), R2(y, w).");
  ASSERT_TRUE(u.ok());
  std::vector<std::pair<std::string, std::string>> h;
  EXPECT_TRUE(ProvidesVariables(u->disjuncts[1], u->disjuncts[0],
                                {"x", "z", "y"}, &h));
  EXPECT_FALSE(h.empty());
}

TEST(UnionEnum, RepairedUnionOutlivesFactoryScratch) {
  // The first disjunct is not free-connex; the factory repairs it with a
  // provided atom materialized into a factory-local scratch database and
  // builds every disjunct enumerator against a factory-local merged view.
  // Draining only after the factory has returned (under ASan in CI) pins
  // the ownership contract: the union enumerator itself must keep the
  // merged view alive, since no caller can.
  auto u = ParseUnionQuery(
      "Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w).\n"
      "Q(x, y, w) :- R1(x, y), R2(y, w).");
  ASSERT_TRUE(u.ok());
  Database db;
  Relation r1("R1", 2);
  r1.Add({0, 1});
  r1.Add({1, 2});
  Relation r2("R2", 2);
  r2.Add({1, 3});
  r2.Add({2, 0});
  Relation r3("R3", 2);
  r3.Add({0, 4});
  r3.Add({1, 4});
  db.PutRelation(r1);
  db.PutRelation(r2);
  db.PutRelation(r3);

  std::unique_ptr<AnswerEnumerator> e;
  {
    auto made = MakeUnionEnumerator(*u, db);
    ASSERT_TRUE(made.ok()) << made.status();
    e = std::move(made.value());
  }

  Relation want("Q", 3);
  for (const ConjunctiveQuery& q : u->disjuncts) {
    auto r = EvaluateBacktrack(q, db);
    ASSERT_TRUE(r.ok()) << r.status();
    want.AppendFrom(*r);
  }
  want.SortDedup();

  Relation got = DrainEnumerator(e.get(), "Q", 3);
  got.SortDedup();
  EXPECT_GT(got.NumTuples(), 0u);
  EXPECT_EQ(got.ToRowMajor(), want.ToRowMajor());
}

TEST(UnionEnum, IrreparableUnionFails) {
  // Two copies of the matrix query over disjoint relations: nothing
  // provides the missing variables.
  auto u = ParseUnionQuery(
      "Q(x, y) :- A(x, z), B(z, y).\n"
      "Q(x, y) :- C(x, z), D(z, y).");
  ASSERT_TRUE(u.ok());
  Database db;
  db.PutRelation(Relation("A", 2));
  db.PutRelation(Relation("B", 2));
  db.PutRelation(Relation("C", 2));
  db.PutRelation(Relation("D", 2));
  auto e = MakeUnionEnumerator(*u, db);
  EXPECT_FALSE(e.ok());
}

}  // namespace
}  // namespace fgq
