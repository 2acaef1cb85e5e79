#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fgq/db/snapshot.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/query/parser.h"
#include "fgq/trace/trace.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseConjunctiveQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

std::string Key(const Relation& r) {
  std::string s = std::to_string(r.NumTuples()) + ":";
  for (size_t i = 0; i < r.NumTuples(); ++i) {
    for (size_t j = 0; j < r.arity(); ++j) {
      s += std::to_string(r.Row(i)[j]) + ",";
    }
    s += ";";
  }
  return s;
}

/// Asserts that `r` is a canonical set: rows strictly ascending, and the
/// sorted bit set when there are rows to order.
void ExpectCanonical(const Relation& r) {
  if (r.arity() > 0 && r.NumTuples() > 0) {
    EXPECT_TRUE(r.sorted());
  }
  for (size_t i = 1; i < r.NumTuples(); ++i) {
    ASSERT_LT(r.Row(i - 1).ToTuple(), r.Row(i).ToTuple()) << "row " << i;
  }
}

/// Asserts that two relations hold the same tuple set.
void ExpectSameAnswers(Relation a, Relation b) {
  a.SortDedup();
  b.SortDedup();
  ASSERT_EQ(a.arity(), b.arity());
  EXPECT_EQ(Key(a), Key(b));
}

TEST(Yannakakis, SimplePathJoin) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({2, 3});
  e.Add({3, 4});
  db.PutRelation(e);
  Relation f = e;
  f.set_name("F");
  db.PutRelation(f);
  auto res = EvaluateYannakakis(Q("Q(x, z) :- E(x, y), F(y, z)."), db);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->NumTuples(), 2u);  // (1,3), (2,4).
  EXPECT_TRUE(res->Contains({1, 3}));
  EXPECT_TRUE(res->Contains({2, 4}));
}

TEST(Yannakakis, BooleanQueryTrueAndFalse) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  db.PutRelation(e);
  Relation f("F", 2);
  db.PutRelation(f);
  auto t = EvaluateBooleanAcq(Q("Q() :- E(x, y)."), db);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(*t);
  auto fr = EvaluateBooleanAcq(Q("Q() :- E(x, y), F(y, z)."), db);
  ASSERT_TRUE(fr.ok());
  EXPECT_FALSE(*fr);
}

/// Random Boolean acyclic queries — paths, stars, a cross product, a
/// constant, a nullary atom — over small random data, some of it empty:
/// the bottom-up decision sweep must agree with the backtracking oracle
/// on every thread count.
TEST(Yannakakis, BooleanDecisionMatchesOracle) {
  const std::vector<std::string> queries = {
      "Q() :- E1(x1, x2).",
      "Q() :- E1(x1, x2), E2(x2, x3).",
      "Q() :- E1(x1, x2), E2(x2, x3), E3(x3, x4), E4(x4, x5).",
      "Q() :- E1(t, x1), E2(t, x2), E3(t, x3).",
      "Q() :- E1(x, y), E2(z, w).",
      "Q() :- E1(x, 2), E2(x, y), E3(y, y).",
      "Q() :- E1(1, 2), E2(x, y).",
      "Q() :- E1(x1, x2), E2(x2, x3, x4), E3(x1, x5), E4(x3, x4).",
  };
  const ExecContext pooled(ExecOptions::Parallel(4));
  Rng rng(41);
  size_t trues = 0, falses = 0;
  for (const std::string& text : queries) {
    const ConjunctiveQuery q = Q(text);
    for (int trial = 0; trial < 12; ++trial) {
      Database db;
      for (const Atom& a : q.atoms()) {
        // Sparse enough that some instances are unsatisfiable; trial 0
        // leaves the first relation empty.
        const size_t n =
            trial == 0 && a.relation == "E1" ? 0 : 4 + rng.Below(8);
        db.PutRelation(RandomRelation(a.relation, a.arity(), n, 6, &rng));
      }
      db.DeclareDomainSize(6);
      SCOPED_TRACE(text + " trial " + std::to_string(trial));
      auto oracle = EvaluateBacktrack(q, db);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      const bool want = oracle->NumTuples() > 0;
      (want ? trues : falses) += 1;
      for (const ExecContext& ctx : {ExecContext(), pooled}) {
        auto got = EvaluateBooleanAcq(q, db, ctx);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, want);
        // The full reduction decides the same way.
        auto rq = FullReduce(q, db, ctx);
        ASSERT_TRUE(rq.ok()) << rq.status();
        EXPECT_EQ(!rq->empty, want);
      }
    }
  }
  EXPECT_GT(trues, 10u);
  EXPECT_GT(falses, 10u);
}

TEST(Yannakakis, BooleanDecisionHonoursCancellation) {
  Rng rng(43);
  Database db = PathDatabase(3, 200, 40, &rng);
  const ConjunctiveQuery q("B", {}, PathQuery(3).atoms());
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  for (const ExecContext& base :
       {ExecContext(), ExecContext(ExecOptions::Parallel(4))}) {
    auto r = EvaluateBooleanAcq(q, db, base.WithCancel(token));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
    // Uncancelled, the same call decides, under the same span names.
    TraceContext live;
    auto ok = EvaluateBooleanAcq(q, db, base.WithTrace(&live));
    ASSERT_TRUE(ok.ok()) << ok.status();
    std::set<std::string> spans;
    for (const TraceContext::Event& ev : live.events()) spans.insert(ev.name);
    EXPECT_TRUE(spans.count("prepare_atoms"));
    EXPECT_TRUE(spans.count("semijoin_sweeps"));
  }
}

TEST(Yannakakis, ConstantsFilterRows) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({1, 3});
  e.Add({2, 3});
  db.PutRelation(e);
  auto res = EvaluateYannakakis(Q("Q(y) :- E(1, y)."), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->NumTuples(), 2u);
}

TEST(Yannakakis, RepeatedVariableInAtom) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 1});
  e.Add({1, 2});
  e.Add({3, 3});
  db.PutRelation(e);
  auto res = EvaluateYannakakis(Q("Q(x) :- E(x, x)."), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->NumTuples(), 2u);  // 1, 3.
}

TEST(Yannakakis, RejectsCyclicQuery) {
  Database db;
  db.PutRelation(Relation("E", 2));
  db.PutRelation(Relation("F", 2));
  db.PutRelation(Relation("G", 2));
  auto res = EvaluateYannakakis(Q("Q() :- E(x, y), F(y, z), G(z, x)."), db);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(Yannakakis, MissingRelationIsNotFound) {
  Database db;
  auto res = EvaluateYannakakis(Q("Q(x) :- Nope(x)."), db);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

TEST(Yannakakis, CartesianProductViaDisconnectedAtoms) {
  Database db;
  Relation a("A", 1), b("B", 1);
  a.Add({1});
  a.Add({2});
  b.Add({7});
  b.Add({8});
  db.PutRelation(a);
  db.PutRelation(b);
  auto res = EvaluateYannakakis(Q("Q(x, y) :- A(x), B(y)."), db);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->NumTuples(), 4u);
}

TEST(Yannakakis, EmptyRelationPropagatesThroughDisconnectedParts) {
  Database db;
  Relation a("A", 1), b("B", 1);
  a.Add({1});
  db.PutRelation(a);
  db.PutRelation(b);  // Empty.
  auto res = EvaluateYannakakis(Q("Q(x) :- A(x), B(y)."), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->NumTuples(), 0u);
}

TEST(Yannakakis, SelfJoinSameRelationTwice) {
  Database db;
  Relation e("E", 2);
  e.Add({1, 2});
  e.Add({2, 3});
  db.PutRelation(e);
  auto res = EvaluateYannakakis(Q("Q(x, z) :- E(x, y), E(y, z)."), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->NumTuples(), 1u);
  EXPECT_TRUE(res->Contains({1, 3}));
}

TEST(Yannakakis, MatchesOracleOnFigure1Workload) {
  Rng rng(11);
  Database db = Figure1Database(/*tuples=*/40, /*domain=*/6, &rng);
  ConjunctiveQuery q = Figure1Query();
  auto fast = EvaluateYannakakis(q, db);
  auto slow = EvaluateBacktrack(q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  ExpectSameAnswers(*fast, *slow);
}

TEST(Yannakakis, JoinMaterializeBaselineAgrees) {
  Rng rng(12);
  Database db = PathDatabase(3, 50, 7, &rng);
  ConjunctiveQuery q = PathQuery(3);
  auto fast = EvaluateYannakakis(q, db);
  auto base = EvaluateJoinMaterialize(q, db);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(base.ok());
  ExpectSameAnswers(*fast, *base);
}

// ---- Property sweep: random acyclic queries vs the oracle --------------------

struct SweepParam {
  std::string query;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

void PrintTo(const SweepParam& p, std::ostream* os) { *os << p.query; }

class YannakakisSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(YannakakisSweep, MatchesOracle) {
  const SweepParam& p = GetParam();
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
  auto fast = EvaluateYannakakis(q, db);
  auto slow = EvaluateBacktrack(q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  ExpectCanonical(*fast);
  ExpectSameAnswers(*fast, *slow);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, YannakakisSweep,
    ::testing::Values(
        SweepParam{"Q(x, y) :- R(x, y).", 20, 5, 1},
        SweepParam{"Q(x) :- R(x, y), S(y).", 25, 6, 2},
        SweepParam{"Q(x, z) :- R(x, y), S(y, z).", 30, 5, 3},
        SweepParam{"Q(x, y, z) :- R(x, y), S(y, z).", 30, 5, 4},
        SweepParam{"Q() :- R(x, y), S(y, z), T(z, w).", 10, 8, 5},
        SweepParam{"Q(a) :- R(a, b), S(b, c), T(c, d).", 25, 5, 6},
        SweepParam{"Q(a, d) :- R(a, b), S(b, c), T(c, d).", 25, 4, 7},
        SweepParam{"Q(x, y, z) :- E(x, y), F(y, z), G(z, x), T(x, y, z).",
                   20, 4, 8},
        SweepParam{"Q(x) :- R(x, x, y), S(y, 2).", 40, 4, 9},
        SweepParam{"Q(u, v) :- A(u), B(v), C(u, v).", 15, 5, 10},
        SweepParam{"Q(x) :- R(x, y), S(y, z), U(z), V(y).", 25, 5, 11},
        SweepParam{"Q(x, w) :- R(x, y), S(x, w), T(w, u).", 25, 5, 12},
        SweepParam{"Q(z, x) :- R(x, y), S(y, z).", 30, 5, 13},
        SweepParam{"Q(c, a, d) :- R(a, b), S(b, c), T(b, d), U(d).", 25, 4,
                   14}));

/// The number of (E1, E2) row pairs joining on E1's column 1 = E2's
/// column 0: the rows the 2-path's join writes before any dedup (dangling
/// rows join nothing, so full reduction does not change it).
uint64_t TwoPathPairs(const Relation& e1, const Relation& e2) {
  std::map<Value, uint64_t> fanout;
  for (size_t i = 0; i < e2.NumTuples(); ++i) ++fanout[e2.At(i, 0)];
  uint64_t pairs = 0;
  for (size_t i = 0; i < e1.NumTuples(); ++i) {
    auto it = fanout.find(e1.At(i, 1));
    if (it != fanout.end()) pairs += it->second;
  }
  return pairs;
}

/// The non-free-connex 2-path over sorted base relations: the atoms pass
/// through unsorted, the (x, y, z) intermediate is never built, and the
/// one join inside join_assembly writes the answer already canonical, its
/// x-run segments sort-deduped as written. The whole evaluation runs no
/// SortDedup at all.
TEST(Yannakakis, TwoPathPaysNoSortDedup) {
  Rng rng(21);
  Database db;
  db.PutRelation(RandomRelation("E1", 2, 400, 30, &rng));
  db.PutRelation(RandomRelation("E2", 2, 400, 30, &rng));
  ConjunctiveQuery q = Q("Q(x, z) :- E1(x, y), E2(y, z).");
  TraceContext trace;
  auto fast = EvaluateYannakakis(q, db, ExecContext().WithTrace(&trace));
  auto slow = EvaluateBacktrack(q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  ExpectCanonical(*fast);
  ExpectSameAnswers(*fast, *slow);
  int joins = 0;
  for (const TraceContext::Event& ev : trace.events()) {
    EXPECT_NE(ev.name, "sort_dedup") << trace.RenderText();
    joins += ev.name == "join_assembly" ? 1 : 0;
  }
  EXPECT_EQ(joins, 1) << trace.RenderText();
  EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
  EXPECT_EQ(trace.counter("join_segment_dedup_rows"),
            TwoPathPairs(*db.Find("E1").value(), *db.Find("E2").value()));
}

/// The 2-path's join probes from E1, whose order leads the output, and
/// builds E2's run table: the result comes out grouped by x1, and every
/// row it writes is sort-deduped inside its x-run's segment, with no
/// SortDedup after. Serial and 4-thread results match.
TEST(Yannakakis, TwoPathProbesInOutputOrder) {
  Rng rng(22);
  Database db;
  db.PutRelation(RandomRelation("E1", 2, 12000, 3000, &rng));
  db.PutRelation(RandomRelation("E2", 2, 12000, 3000, &rng));
  ConjunctiveQuery q = Q("Q(x, z) :- E1(x, y), E2(y, z).");
  TraceContext trace;
  auto serial = EvaluateYannakakis(q, db, ExecContext().WithTrace(&trace));
  auto pooled = EvaluateYannakakis(q, db, ExecOptions::Parallel(4));
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  // The answer set by brute force: E2 grouped by y, each E1 row extended.
  const Relation& e1 = *db.Find("E1").value();
  const Relation& e2 = *db.Find("E2").value();
  std::multimap<Value, Value> z_of;
  for (size_t i = 0; i < e2.NumTuples(); ++i) {
    z_of.emplace(e2.At(i, 0), e2.At(i, 1));
  }
  Relation slow("Q", 2);
  for (size_t i = 0; i < e1.NumTuples(); ++i) {
    auto [b, e] = z_of.equal_range(e1.At(i, 1));
    for (auto it = b; it != e; ++it) slow.Add({e1.At(i, 0), it->second});
  }
  const uint64_t pairs = slow.NumTuples();
  ExpectCanonical(*serial);
  ExpectSameAnswers(*serial, slow);
  EXPECT_EQ(pooled->ToRowMajor(), serial->ToRowMajor());
  EXPECT_GT(trace.counter("join_run_table_probes"), 0u);
  EXPECT_EQ(trace.counter("index_bytes"), 0u);
  EXPECT_EQ(trace.counter("join_segment_dedup_rows"), pairs);
  EXPECT_LT(serial->NumTuples(), pairs);  // Some segment dropped a row.
  EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
}

/// Full reduction leaves only tuples that participate in some answer
/// (global consistency, the property both the constant-delay enumerator
/// and Algorithm 2 rely on).
TEST(FullReduce, ReducedRelationsAreGloballyConsistent) {
  Rng rng(99);
  Database db = PathDatabase(3, 60, 8, &rng);
  ConjunctiveQuery q = PathQuery(3);
  auto rq = FullReduce(q, db);
  ASSERT_TRUE(rq.ok()) << rq.status();
  if (rq->empty) GTEST_SKIP() << "random instance had empty result";
  ConjunctiveQuery full = FullPathQuery(3);
  auto all = EvaluateYannakakis(full, db);
  ASSERT_TRUE(all.ok());
  for (size_t ai = 0; ai < rq->atoms.size(); ++ai) {
    const PreparedAtom& pa = rq->atoms[ai];
    for (size_t r = 0; r < pa.rel.NumTuples(); ++r) {
      bool found = false;
      for (size_t s = 0; s < all->NumTuples() && !found; ++s) {
        bool match = true;
        for (size_t c = 0; c < pa.vars.size(); ++c) {
          // Variables are x1..x4; their column in the full answer.
          size_t col = static_cast<size_t>(pa.vars[c][1] - '1');
          if (all->Row(s)[col] != pa.rel.Row(r)[c]) {
            match = false;
            break;
          }
        }
        found = match;
      }
      EXPECT_TRUE(found) << "dangling tuple survived full reduction";
    }
  }
}

TEST(FullReduce, CanonicalAtomsShareTheDatabaseColumns) {
  Rng rng(5);
  Database db = Figure1Database(/*tuples=*/400, /*domain=*/400, &rng);
  const ConjunctiveQuery q = Figure1Query();
  // A plain atom over a sorted relation is prepared by sharing it.
  const Atom& r_atom = q.atoms()[0];
  const Relation* r = db.Find(r_atom.relation).value();
  ASSERT_TRUE(r->sorted());
  TraceContext prep_trace;
  auto pa = PrepareAtom(r_atom, db, ExecContext().WithTrace(&prep_trace));
  ASSERT_TRUE(pa.ok()) << pa.status();
  for (size_t c = 0; c < r->arity(); ++c) {
    EXPECT_EQ(pa->rel.Column(c), r->Column(c)) << "column " << c;
  }
  EXPECT_EQ(prep_trace.counter("relation_columns_shared"), r->arity());

  // The sweeps compact the shared atoms without writing the snapshot.
  SnapshotStore store(std::move(db));
  const std::shared_ptr<const Snapshot> snap = store.Current();
  std::map<std::string, std::pair<std::vector<Value>,
                                  std::vector<const Value*>>> before;
  for (const Atom& a : q.atoms()) {
    const Relation* rel = snap->db().Find(a.relation).value();
    std::vector<const Value*> cols;
    for (size_t c = 0; c < rel->arity(); ++c) cols.push_back(rel->Column(c));
    before[a.relation] = {rel->ToRowMajor(), cols};
  }
  TraceContext trace;
  auto rq = FullReduce(q, snap->db(), ExecContext().WithTrace(&trace));
  ASSERT_TRUE(rq.ok()) << rq.status();
  uint64_t reduced_rows = 0, source_rows = 0;
  for (const PreparedAtom& atom : rq->atoms) reduced_rows += atom.rel.NumTuples();
  for (const auto& [name, state] : before) {
    const Relation* rel = snap->db().Find(name).value();
    source_rows += rel->NumTuples();
    EXPECT_EQ(rel->ToRowMajor(), state.first) << name;
    for (size_t c = 0; c < rel->arity(); ++c) {
      EXPECT_EQ(rel->Column(c), state.second[c]) << name << " column " << c;
    }
  }
  EXPECT_LT(reduced_rows, source_rows);  // The sweeps did drop rows.
  EXPECT_EQ(trace.counter("relation_columns_shared"), 12u);
  EXPECT_EQ(trace.counter("relation_columns_cloned"), 0u);
}

TEST(FullReduce, EmptyFlagSetWhenUnsatisfiable) {
  Database db;
  Relation a("A", 2);
  a.Add({1, 2});
  Relation b("B", 2);
  b.Add({3, 4});  // No join partner.
  db.PutRelation(a);
  db.PutRelation(b);
  auto rq = FullReduce(Q("Q(x) :- A(x, y), B(y, z)."), db);
  ASSERT_TRUE(rq.ok());
  EXPECT_TRUE(rq->empty);
}

}  // namespace
}  // namespace fgq
