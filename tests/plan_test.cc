#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "fgq/eval/enumerate.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/parser.h"
#include "fgq/trace/trace.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// ---- PreparedAtom ------------------------------------------------------------

TEST(PreparedAtom, ConstantsAndRepeatsResolved) {
  Database db;
  Relation r("R", 3);
  r.Add({1, 1, 5});
  r.Add({1, 2, 5});
  r.Add({2, 2, 5});
  r.Add({1, 1, 6});
  db.PutRelation(r);
  Atom a;
  a.relation = "R";
  a.args = {Term::Var("x"), Term::Var("x"), Term::Const(5)};
  auto pa = PrepareAtom(a, db);
  ASSERT_TRUE(pa.ok()) << pa.status();
  EXPECT_EQ(pa->vars, (std::vector<std::string>{"x"}));
  EXPECT_EQ(pa->rel.NumTuples(), 2u);  // x = 1 and x = 2.
}

TEST(PreparedAtom, ArityMismatchRejected) {
  Database db;
  db.PutRelation(Relation("R", 2));
  Atom a;
  a.relation = "R";
  a.args = {Term::Var("x")};
  EXPECT_FALSE(PrepareAtom(a, db).ok());
}

TEST(Semijoin, ReducesBysSharedVariables) {
  PreparedAtom left;
  left.vars = {"x", "y"};
  left.rel = Relation("L", 2);
  left.rel.Add({1, 10});
  left.rel.Add({2, 20});
  left.rel.Add({3, 30});
  PreparedAtom right;
  right.vars = {"y", "z"};
  right.rel = Relation("R", 2);
  right.rel.Add({10, 7});
  right.rel.Add({30, 8});
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 2u);
}

TEST(Semijoin, DisjointVarsOnlyEmptinessPropagates) {
  PreparedAtom left;
  left.vars = {"x"};
  left.rel = Relation("L", 1);
  left.rel.Add({1});
  PreparedAtom right;
  right.vars = {"z"};
  right.rel = Relation("R", 1);
  right.rel.Add({5});
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 1u);  // Nonempty source: no-op.
  right.rel = Relation("R", 1);         // Now empty.
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 0u);
}

TEST(JoinProject, KeepsRequestedColumnsOnly) {
  PreparedAtom left;
  left.vars = {"x", "y"};
  left.rel = Relation("L", 2);
  left.rel.Add({1, 10});
  left.rel.Add({2, 10});
  PreparedAtom right;
  right.vars = {"y", "z"};
  right.rel = Relation("R", 2);
  right.rel.Add({10, 7});
  right.rel.Add({10, 8});
  PreparedAtom out = JoinProject(left, right, {"x", "z"});
  EXPECT_EQ(out.vars, (std::vector<std::string>{"x", "z"}));
  EXPECT_EQ(out.rel.NumTuples(), 4u);
}

/// A prepared atom over `vars` with `n` random rows: each value is drawn
/// from [0, domain) and multiplied by `stride` (a stride above 16 spreads
/// the keys too thinly for JoinProject's run table). Canonical when
/// `sorted`, in generation order (duplicates kept) otherwise.
PreparedAtom RandomAtom(std::vector<std::string> vars, size_t n, Value domain,
                        Value stride, bool sorted, Rng* rng) {
  PreparedAtom a;
  a.rel = Relation("A", vars.size());
  a.vars = std::move(vars);
  Tuple t(a.vars.size());
  for (size_t i = 0; i < n; ++i) {
    for (Value& v : t) v = static_cast<Value>(rng->Below(domain)) * stride;
    a.rel.Add(t);
  }
  if (sorted) a.rel.SortDedup();
  return a;
}

/// The join of `l` and `r` projected onto `keep`, by a multimap on the
/// shared variables: the set every JoinProject result must equal. Adds
/// the number of joining row pairs (the rows JoinProject writes) to
/// `*pairs`.
std::set<Tuple> BruteForceJoin(const PreparedAtom& l, const PreparedAtom& r,
                               const std::vector<std::string>& keep,
                               uint64_t* pairs) {
  const std::vector<size_t> lc = l.SharedColumns(r);
  std::multimap<Tuple, size_t> by_key;
  for (size_t j = 0; j < r.rel.NumTuples(); ++j) {
    Tuple key;
    for (size_t c : lc) {
      key.push_back(r.rel.At(j, static_cast<size_t>(r.VarIndex(l.vars[c]))));
    }
    by_key.emplace(key, j);
  }
  std::set<Tuple> out;
  for (size_t i = 0; i < l.rel.NumTuples(); ++i) {
    Tuple key;
    for (size_t c : lc) key.push_back(l.rel.At(i, c));
    auto [b, e] = by_key.equal_range(key);
    for (auto it = b; it != e; ++it) {
      ++*pairs;
      Tuple t;
      for (const std::string& v : keep) {
        const int li = l.VarIndex(v);
        t.push_back(li >= 0 ? l.rel.At(i, static_cast<size_t>(li))
                            : r.rel.At(it->second,
                                       static_cast<size_t>(r.VarIndex(v))));
      }
      out.insert(t);
    }
  }
  return out;
}

/// Which tier a serial JoinProject ran, read off its trace counters.
struct JoinTiers {
  uint64_t run_table_probes = 0;  ///< Probed the build side's run table.
  uint64_t index_bytes = 0;       ///< Built a HashIndex.
  uint64_t segment_rows = 0;      ///< Rows sort-deduped per x-run.
};

/// Runs JoinProject(l, r, keep) serially and on `pooled`'s threads; both
/// results must be the same canonical relation and equal the brute-force
/// set. When a sorted side leads the output, the join sort-dedups its
/// x-run segments as it writes them: `join_segment_dedup_rows` is every
/// row written and no sort_dedup span runs; otherwise the counter is 0
/// and one sort_dedup span closes the join.
JoinTiers ExpectJoinMatches(const PreparedAtom& l, const PreparedAtom& r,
                            const std::vector<std::string>& keep,
                            const ExecContext& pooled_ctx) {
  uint64_t pairs = 0;
  const std::set<Tuple> ref = BruteForceJoin(l, r, keep, &pairs);
  TraceContext trace;
  const PreparedAtom serial =
      JoinProject(l, r, keep, ExecContext().WithTrace(&trace));
  const PreparedAtom pooled = JoinProject(l, r, keep, pooled_ctx);
  EXPECT_EQ(serial.vars, keep);
  EXPECT_TRUE(serial.rel.sorted());
  EXPECT_EQ(serial.rel.arity(), keep.size());
  if (keep.empty()) {
    // Nullary output: present exactly when some pair joins.
    EXPECT_EQ(serial.rel.NumTuples(), ref.empty() ? 0u : 1u);
  } else {
    EXPECT_EQ(serial.rel.NumTuples(), ref.size());
    size_t i = 0;
    for (const Tuple& t : ref) {
      if (i >= serial.rel.NumTuples()) break;
      EXPECT_EQ(serial.rel.Row(i).ToTuple(), t) << "row " << i;
      ++i;
    }
  }
  EXPECT_EQ(pooled.rel.NumTuples(), serial.rel.NumTuples());
  EXPECT_EQ(pooled.rel.ToRowMajor(), serial.rel.ToRowMajor());
  EXPECT_TRUE(pooled.rel.sorted());

  auto leads = [&](const PreparedAtom& a) {
    return !keep.empty() && a.rel.sorted() && !a.vars.empty() &&
           a.vars[0] == keep[0];
  };
  const bool by_segments = leads(l) || leads(r);
  int sort_spans = 0;
  for (const TraceContext::Event& ev : trace.events()) {
    sort_spans += ev.name == "sort_dedup" ? 1 : 0;
  }
  const JoinTiers tiers{trace.counter("join_run_table_probes"),
                        trace.counter("index_bytes"),
                        trace.counter("join_segment_dedup_rows")};
  EXPECT_EQ(tiers.segment_rows, by_segments ? pairs : 0u);
  EXPECT_EQ(sort_spans, by_segments ? 0 : 1) << trace.RenderText();
  return tiers;
}

/// A pool of 4 threads cutting the probe into 64-row morsels, so morsel
/// bounds fall inside x-runs of inputs above the 8192-row parallel cutoff.
ExecContext SmallMorsels() {
  ExecOptions opts = ExecOptions::Parallel(4);
  opts.morsel_size = 64;
  return ExecContext(opts);
}

TEST(JoinProject, MatchesBruteForceOnEveryShape) {
  struct Shape {
    std::vector<std::string> left, right;
  };
  const Shape shapes[] = {
      {{"x", "y"}, {"y", "z"}},            // Key leads the right side only.
      {{"y", "x"}, {"y", "z"}},            // Key leads both sides.
      {{"x", "y"}, {"z", "y"}},            // Key leads neither side.
      {{"x", "y", "z"}, {"y", "z", "w"}},  // Two-column key.
      {{"x"}, {"z"}},                      // No shared variable.
  };
  const std::vector<std::vector<std::string>> keeps = {
      {"x", "z"}, {"z", "x"}, {"x"}, {"z"}, {"y"}, {}, {"x", "y", "z"}};
  const ExecContext pooled(ExecOptions::Parallel(4));
  uint64_t run_table_joins = 0, hash_joins = 0, segment_joins = 0;
  uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    for (const bool sorted : {true, false}) {
      // Dense small keys (many duplicates after projection), sparse keys
      // (the HashIndex tier), and a side empty.
      for (const int kind : {0, 1, 2}) {
        Rng rng(seed++);
        const size_t n = shape.left.size() == 1 ? 40 : 300;
        const Value domain = kind == 1 ? 200 : 12;
        const Value stride = kind == 1 ? 1000003 : 1;
        const PreparedAtom l =
            RandomAtom(shape.left, n, domain, stride, sorted, &rng);
        const PreparedAtom r = RandomAtom(shape.right, kind == 2 ? 0 : n,
                                          domain, stride, sorted, &rng);
        for (std::vector<std::string> keep : keeps) {
          keep.erase(std::remove_if(keep.begin(), keep.end(),
                                    [&](const std::string& v) {
                                      return l.VarIndex(v) < 0 &&
                                             r.VarIndex(v) < 0;
                                    }),
                     keep.end());
          for (const bool flip : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << shape.left.size() << "x" << shape.right.size()
                         << " sorted " << sorted << " kind " << kind
                         << " keep " << keep.size() << " flip " << flip);
            const JoinTiers tiers =
                flip ? ExpectJoinMatches(r, l, keep, pooled)
                     : ExpectJoinMatches(l, r, keep, pooled);
            run_table_joins += tiers.run_table_probes > 0 ? 1 : 0;
            hash_joins += tiers.index_bytes > 0 ? 1 : 0;
            segment_joins += tiers.segment_rows > 0 ? 1 : 0;
          }
        }
      }
    }
  }
  // Both tiers ran, and some joins closed their segments as written.
  EXPECT_GT(run_table_joins, 0u);
  EXPECT_GT(hash_joins, 0u);
  EXPECT_GT(segment_joins, 0u);
}

TEST(JoinProject, ParallelBranchWritesTheSameColumns) {
  // Above the parallel row cutoff (8192 probe rows), on both tiers.
  const ExecContext pooled(ExecOptions::Parallel(4));
  for (const Value stride : {Value{1}, Value{1000003}}) {
    Rng rng(static_cast<uint64_t>(stride));
    const PreparedAtom l =
        RandomAtom({"x", "y"}, 20000, 5000, stride, true, &rng);
    const PreparedAtom r =
        RandomAtom({"y", "z"}, 20000, 5000, stride, true, &rng);
    for (const bool flip : {false, true}) {
      const JoinTiers tiers =
          flip ? ExpectJoinMatches(r, l, {"x", "z"}, pooled)
               : ExpectJoinMatches(l, r, {"x", "z"}, pooled);
      EXPECT_EQ(tiers.run_table_probes > 0, stride == 1);
      EXPECT_EQ(tiers.index_bytes > 0, stride != 1);
      EXPECT_GT(tiers.segment_rows, 0u);
    }
  }
}

/// Many y of one x reach the same z: nearly every row a segment writes is
/// a duplicate, dropped as its x-run closes. On both tiers.
TEST(JoinProject, DuplicateHeavySegmentsCollapse) {
  for (const Value stride : {Value{1}, Value{1000003}}) {
    Rng rng(static_cast<uint64_t>(stride) + 7);
    const PreparedAtom l =
        RandomAtom({"x", "y"}, 20000, 400, stride, true, &rng);
    // Each y reaches two of three z.
    PreparedAtom r;
    r.vars = {"y", "z"};
    r.rel = Relation("R", 2);
    for (Value y = 0; y < 400; ++y) {
      r.rel.Add({y * stride, (y % 3) * stride});
      r.rel.Add({y * stride, ((y + 1) % 3) * stride});
    }
    r.rel.SortDedup();
    const JoinTiers tiers = ExpectJoinMatches(l, r, {"x", "z"}, SmallMorsels());
    const PreparedAtom out = JoinProject(l, r, {"x", "z"});
    EXPECT_LE(out.rel.NumTuples(), 3u * 400u);
    EXPECT_GT(tiers.segment_rows, 20 * out.rel.NumTuples());
  }
}

/// Morsels of 64 probe rows on x-runs of ~50-70 rows, and on runs far
/// longer than a morsel: bounds snap to the next x so every morsel owns
/// whole runs, some own none, and the kept slices compact to the same
/// columns as the serial run.
TEST(JoinProject, MorselBoundsInsideRunsWriteTheSameColumns) {
  for (const Value domain : {Value{300}, Value{20}}) {
    Rng rng(static_cast<uint64_t>(domain));
    const PreparedAtom l =
        RandomAtom({"x", "y"}, 20000, domain, 1, true, &rng);
    const PreparedAtom r = RandomAtom({"y", "z"}, 1500, 300, 1, true, &rng);
    for (const bool flip : {false, true}) {
      const JoinTiers tiers =
          flip ? ExpectJoinMatches(r, l, {"x", "z"}, SmallMorsels())
               : ExpectJoinMatches(l, r, {"x", "z"}, SmallMorsels());
      EXPECT_GT(tiers.segment_rows, 0u);
    }
    ExpectJoinMatches(l, r, {"x", "y", "z"}, SmallMorsels());
  }
}

/// A 3-column keep of the probe's leading x, another probe column w and
/// a build column z: segments sort as rows of two trailing values.
TEST(JoinProject, WideKeepSortsSegmentsAsRows) {
  for (const size_t n : {size_t{300}, size_t{10000}}) {
    Rng rng(n);
    const PreparedAtom l = RandomAtom({"x", "w", "y"}, n, 60, 1, true, &rng);
    const PreparedAtom r = RandomAtom({"y", "z"}, 300, 60, 1, true, &rng);
    for (const std::vector<std::string>& keep :
         {std::vector<std::string>{"x", "w", "z"},
          std::vector<std::string>{"x", "z", "w"},
          std::vector<std::string>{"x", "z", "y", "w"}}) {
      const JoinTiers tiers = ExpectJoinMatches(l, r, keep, SmallMorsels());
      EXPECT_GT(tiers.segment_rows, 0u);
    }
  }
}

/// One hub x with hundreds of matching rows, past the 32-row insertion
/// sort, at one and two trailing columns; and a keep of x alone, whose
/// segments each collapse to one row.
TEST(JoinProject, HubSegmentsAndLeadingKeepAlone) {
  Rng rng(23);
  PreparedAtom l = RandomAtom({"x", "y"}, 2000, 200, 1, false, &rng);
  for (Value y = 0; y < 200; ++y) l.rel.Add({7, y});
  l.rel.SortDedup();
  const PreparedAtom r = RandomAtom({"y", "z", "u"}, 4000, 200, 1, true,
                                    &rng);
  const ExecContext pooled(ExecOptions::Parallel(4));
  for (const std::vector<std::string>& keep :
       {std::vector<std::string>{"x", "z"},
        std::vector<std::string>{"x", "u", "z"},
        std::vector<std::string>{"x"}}) {
    const JoinTiers tiers = ExpectJoinMatches(l, r, keep, pooled);
    EXPECT_GT(tiers.segment_rows, 0u);
    ExpectJoinMatches(r, l, keep, pooled);
  }
}

// ---- FreeConnexPlan ----------------------------------------------------------

TEST(FreeConnexPlan, NodesCoverHeadAndParentsPrecedeChildren) {
  Rng rng(301);
  Database db = Figure1Database(40, 6, &rng);
  ConjunctiveQuery q = Figure1Query();
  auto plan = BuildFreeConnexPlan(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  if (plan->empty) GTEST_SKIP() << "random instance empty";
  std::set<std::string> vars;
  for (const PreparedAtom& n : plan->nodes) {
    vars.insert(n.vars.begin(), n.vars.end());
  }
  for (const std::string& h : q.head()) {
    EXPECT_TRUE(vars.count(h)) << h;
  }
  // Every variable in the plan is a head variable (pure free projection).
  EXPECT_EQ(vars.size(), q.head().size());
  for (size_t i = 0; i < plan->parent.size(); ++i) {
    EXPECT_LT(plan->parent[i], static_cast<int>(i));
  }
  EXPECT_EQ(plan->parent[0], -1);
}

TEST(FreeConnexPlan, EmptyFlag) {
  Database db;
  db.PutRelation(Relation("R", 2));
  auto plan = BuildFreeConnexPlan(
      *ParseConjunctiveQuery("Q(x, y) :- R(x, y)."), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty);
}

// ---- Random acyclic-hypergraph property sweep ---------------------------------

/// Generates a random acyclic query by building a random join tree first:
/// each new atom shares a random subset of an existing atom's variables
/// and adds fresh ones. By construction the result is alpha-acyclic.
ConjunctiveQuery RandomAcyclicQuery(size_t atoms, Rng* rng) {
  ConjunctiveQuery q("Rnd", {}, {});
  int fresh = 0;
  std::vector<std::vector<std::string>> atom_vars;
  for (size_t i = 0; i < atoms; ++i) {
    std::vector<std::string> vars;
    if (i > 0) {
      const std::vector<std::string>& base = atom_vars[rng->Below(i)];
      for (const std::string& v : base) {
        if (rng->Chance(0.5)) vars.push_back(v);
      }
    }
    size_t fresh_count = 1 + rng->Below(2);
    for (size_t f = 0; f < fresh_count; ++f) {
      vars.push_back("v" + std::to_string(fresh++));
    }
    Atom a;
    a.relation = "R" + std::to_string(i);
    for (const std::string& v : vars) a.args.push_back(Term::Var(v));
    q.AddAtom(std::move(a));
    atom_vars.push_back(vars);
  }
  // Random subset of variables as head.
  std::vector<std::string> head;
  for (const std::string& v : q.Variables()) {
    if (rng->Chance(0.4)) head.push_back(v);
  }
  q.set_head(head);
  return q;
}

TEST(GyoProperty, RandomTreeShapedQueriesAreAcyclicWithValidJoinTrees) {
  Rng rng(302);
  for (int trial = 0; trial < 40; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(6), &rng);
    Hypergraph hg = Hypergraph::FromQuery(q);
    GyoResult gyo = GyoReduce(hg);
    ASSERT_TRUE(gyo.acyclic) << "trial " << trial << ": " << q.ToString();
    EXPECT_TRUE(gyo.tree.IsValid(hg)) << q.ToString();
  }
}

TEST(GyoProperty, YannakakisMatchesOracleOnRandomAcyclicQueries) {
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(4), &rng);
    if (q.Variables().size() > 7) continue;  // Keep the oracle fast.
    Database db;
    for (const Atom& a : q.atoms()) {
      db.PutRelation(RandomRelation(a.relation, a.arity(), 20, 4, &rng));
    }
    db.DeclareDomainSize(4);
    auto fast = EvaluateYannakakis(q, db);
    auto slow = EvaluateBacktrack(q, db);
    ASSERT_TRUE(fast.ok()) << fast.status() << " for " << q.ToString();
    ASSERT_TRUE(slow.ok());
    Relation a = *fast;
    Relation b = *slow;
    a.SortDedup();
    b.SortDedup();
    ASSERT_EQ(a.NumTuples(), b.NumTuples()) << q.ToString();
  }
}

TEST(GyoProperty, FreeConnexQueriesEnumerateCorrectly) {
  Rng rng(304);
  int tested = 0;
  for (int trial = 0; trial < 60 && tested < 15; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(4), &rng);
    if (!IsFreeConnex(q) || q.arity() == 0 || q.Variables().size() > 7) {
      continue;
    }
    ++tested;
    Database db;
    for (const Atom& a : q.atoms()) {
      db.PutRelation(RandomRelation(a.relation, a.arity(), 18, 4, &rng));
    }
    db.DeclareDomainSize(4);
    auto e = MakeConstantDelayEnumerator(q, db);
    ASSERT_TRUE(e.ok()) << e.status() << " for " << q.ToString();
    Relation got = DrainEnumerator(e->get(), "got", q.arity());
    auto oracle = EvaluateBacktrack(q, db);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(got.NumTuples(), oracle->NumTuples()) << q.ToString();
  }
  EXPECT_GE(tested, 10);
}

}  // namespace
}  // namespace fgq
