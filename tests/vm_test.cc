// Unit tests of fgq::vm, the executor of every Boolean and free-connex
// plan: lowering, program structure, the switch-threaded cursor, the
// bottom-up semiring fold, and the engine routes that run it. The fuzzer
// (fuzz_check) additionally diffs every random case against the
// brute-force reference; these tests pin the specific shapes the compiler
// promises.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fgq/count/acq_count.h"
#include "fgq/db/index.h"
#include "fgq/eval/engine.h"
#include "fgq/query/parser.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/trace.h"
#include "fgq/util/random.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
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

vm::Compilation Compile(const ConjunctiveQuery& q, const Database& db) {
  Result<vm::Compilation> comp = vm::CompileQuery(q, db);
  EXPECT_TRUE(comp.ok()) << comp.status();
  return comp.ok() ? *comp : vm::Compilation{};
}

std::vector<Tuple> DrainAll(AnswerEnumerator* e) {
  std::vector<Tuple> out;
  Tuple t;
  while (e->Next(&t)) out.push_back(t);
  return out;
}

// ---- Lowering ---------------------------------------------------------------

TEST(VmCompile, FreeConnexQueryCompiles) {
  Database db = TinyGraph();
  vm::Compilation comp = Compile(Q("Q(x, y) :- E(x, y), B(y)."), db);
  ASSERT_TRUE(comp.ok()) << comp.fallback_reason;
  EXPECT_EQ(comp.program->algorithm, "constant-delay-enumeration+vm");
  EXPECT_EQ(comp.program->arity, 2u);
  EXPECT_FALSE(comp.program->is_boolean);
  EXPECT_FALSE(comp.program->code.empty());
  // The stream terminates.
  EXPECT_EQ(comp.program->code.back().op, vm::Op::kHalt);
}

TEST(VmCompile, NonCompilableClassesReportAReason) {
  Database db = TinyGraph();
  // Cyclic, order comparison, negation, disequalities (served by witness
  // elimination), general acyclic: a reason, never an error.
  for (const char* text : {
           "T(x, y, z) :- E(x, y), E(y, z), E(z, x).",
           "Q(x, y) :- E(x, y), x < y.",
           "Q(x) :- E(x, y), not B(y).",
           "Q(x) :- E(x, y), x != y.",
           "Q(x, y) :- E(x, y), x != y.",
           "Q(x, z) :- E(x, y), E(y, z).",
       }) {
    vm::Compilation comp = Compile(Q(text), db);
    EXPECT_FALSE(comp.ok()) << text;
    EXPECT_FALSE(comp.fallback_reason.empty()) << text;
  }
}

TEST(VmCompile, DisassemblyListsTheEnumerationCode) {
  Database db = TinyGraph();
  vm::Compilation comp = Compile(Q("Q(x, y) :- E(x, y), B(y)."), db);
  ASSERT_TRUE(comp.ok());
  const std::string dis = comp.program->Disassemble();
  EXPECT_NE(dis.find("code:"), std::string::npos);
  EXPECT_NE(dis.find("init_root"), std::string::npos);
  EXPECT_NE(dis.find("emit"), std::string::npos);
  EXPECT_NE(dis.find("halt"), std::string::npos);
}

// ---- The cursor -------------------------------------------------------------

TEST(VmCursor, ConstantDelayEnumeratorRunsTheProgram) {
  Database db = TinyGraph();
  // MakeConstantDelayEnumerator is a cursor over the same program: the
  // same odometer order, not just the same answer set.
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  vm::Compilation comp = Compile(q, db);
  ASSERT_TRUE(comp.ok()) << comp.fallback_reason;
  std::vector<Tuple> compiled =
      DrainAll(vm::MakeProgramCursor(comp.program).get());
  Result<std::unique_ptr<AnswerEnumerator>> e =
      MakeConstantDelayEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(DrainAll(e->get()), compiled);
  EXPECT_EQ(compiled, (std::vector<Tuple>{{0, 1}, {1, 2}}));
}

TEST(VmCursor, BooleanProgramsYieldOneNullaryAnswer) {
  Database db = TinyGraph();
  vm::Compilation sat = Compile(Q("Q() :- E(x, y), B(y)."), db);
  ASSERT_TRUE(sat.ok()) << sat.fallback_reason;
  EXPECT_TRUE(sat.program->is_boolean);
  EXPECT_EQ(sat.program->algorithm, "boolean-semijoin-sweep+vm");
  EXPECT_EQ(DrainAll(vm::MakeProgramCursor(sat.program).get()).size(), 1u);

  vm::Compilation unsat = Compile(Q("Q() :- E(x, x)."), db);
  ASSERT_TRUE(unsat.ok()) << unsat.fallback_reason;
  EXPECT_EQ(DrainAll(vm::MakeProgramCursor(unsat.program).get()).size(), 0u);
}

// ---- The semiring fold -----------------------------------------------------

TEST(VmCount, CountingFoldMatchesTheAnswerCount) {
  Database db = TinyGraph();
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  vm::Compilation comp = Compile(q, db);
  ASSERT_TRUE(comp.ok());
  Result<SemiringValue> n =
      vm::RunSemiring(*comp.program, SemiringId::kCounting, CancelToken());
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n->count, BigInt::FromUint64(2));
}

TEST(VmCount, CancellationSurfaces) {
  Database db = TinyGraph();
  vm::Compilation comp = Compile(Q("Q(x, y) :- E(x, y), B(y)."), db);
  ASSERT_TRUE(comp.ok());
  CancelToken cancel = CancelToken::Cancellable();
  cancel.Cancel();
  // The poll period is ~64k ops; a tiny program may finish first. Either
  // outcome is allowed, but a non-OK status must be the token's.
  Result<SemiringValue> n =
      vm::RunSemiring(*comp.program, SemiringId::kCounting, cancel);
  if (!n.ok()) {
    EXPECT_EQ(n.status().code(), StatusCode::kCancelled) << n.status();
  }
}

TEST(VmCount, CancellationReachesTheCrossProductFold) {
  // A cross product compiles to a handful of instructions, one of which
  // folds all 3000 x 3000 answers: the poll must count the rows it
  // sweeps, not the instructions it dispatches.
  Database db;
  Relation a("A", 1), b("B", 1);
  for (Value v = 0; v < 3000; ++v) {
    a.Add({v});
    b.Add({v});
  }
  db.PutRelation(a);
  db.PutRelation(b);
  vm::Compilation comp = Compile(Q("Q(x, y) :- A(x), B(y)."), db);
  ASSERT_TRUE(comp.ok()) << comp.fallback_reason;
  CancelToken cancel = CancelToken::Cancellable();
  cancel.Cancel();
  for (SemiringId id : {SemiringId::kMinPlus, SemiringId::kTopK}) {
    Result<SemiringValue> v = vm::RunSemiring(*comp.program, id, cancel);
    ASSERT_FALSE(v.ok()) << SemiringName(id);
    EXPECT_EQ(v.status().code(), StatusCode::kCancelled) << v.status();
  }
}

TEST(VmCount, CountsPast64BitsExactly) {
  // A star of `arms` arms, each with 2^16 leaves around one centre:
  // exactly 2^(16 * arms) answers. The fold's machine-word pass overflows
  // at 4 arms, so the value must come from the exact rerun.
  constexpr Value kLeaves = Value{1} << 16;
  for (int arms : {4, 5}) {
    Database db;
    std::string head = "Q(c";
    std::string body;
    for (int a = 1; a <= arms; ++a) {
      const std::string rel = "E" + std::to_string(a);
      const std::string leaf = "l" + std::to_string(a);
      Relation e(rel, 2);
      for (Value v = 0; v < kLeaves; ++v) e.Add({0, v});
      db.PutRelation(std::move(e));
      head += ", " + leaf;
      body += (a == 1 ? "" : ", ") + rel + "(c, " + leaf + ")";
    }
    const ConjunctiveQuery q = Q(head + ") :- " + body + ".");
    const BigInt want = BigInt::Pow2(16 * static_cast<uint64_t>(arms));

    vm::Compilation comp = Compile(q, db);
    ASSERT_TRUE(comp.ok()) << comp.fallback_reason;
    Result<SemiringValue> n =
        vm::RunSemiring(*comp.program, SemiringId::kCounting, CancelToken());
    ASSERT_TRUE(n.ok()) << n.status();
    EXPECT_EQ(n->count, want) << arms << " arms: " << n->count.ToString();

    SnapshotStore store(std::move(db));
    ServiceOptions sopts;
    sopts.num_workers = 1;
    QueryService service(&store, sopts);
    ServiceRequest req;
    req.query = q;
    req.verb = ServeVerb::kCount;
    ServiceResponse resp = service.Submit(std::move(req)).get();
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    EXPECT_EQ(resp.count, want) << arms << " arms: " << resp.count.ToString();
    service.Stop();
  }
}

/// Height of the deepest join-tree path of `p`, in nodes.
size_t TreeHeight(const vm::Program& p) {
  size_t height = 0;
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    size_t h = 1;
    for (size_t j = i; p.nodes[j].index != nullptr; j = p.nodes[j].parent) ++h;
    height = std::max(height, h);
  }
  return height;
}

/// Join-tree edges with an empty key: the cross products of a forest,
/// which the plan hangs under one root.
size_t NumCrossEdges(const vm::Program& p) {
  size_t edges = 0;
  for (const vm::ProgramNode& n : p.nodes) {
    edges += n.index != nullptr && n.npcols == 0;
  }
  return edges;
}

TEST(VmCount, FoldMatchesTheDrainedCursorUnderEverySemiring) {
  // Every semiring's fold must equal the reference fold of the answers
  // the cursor yields, on random data, serial and with 4 threads.
  const char* const queries[] = {
      // Chains 3 and 4 levels deep, with and without a projected tail.
      "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d).",
      "Q(a, b, c) :- R(a, b), S(b, c), T(c, d).",
      "Q(a, b, c, d, e) :- R(a, b), S(b, c), T(c, d), U(d, e).",
      "Q(x1, x2, x3) :- R(x1, x2), S3(x2, x3, y3), R2(x1, y1), "
      "T3(y3, y4, y5), S(x2, y2).",
      // A star, and a ternary hub.
      "Q(c, a, b, d) :- R(c, a), S(c, b), T(c, d).",
      "Q(x, y, z, w) :- S3(x, y, z), R(y, w), U(z, v).",
      // Forests: cross products of trees.
      "Q(x, y, z) :- R(x, y), P(z).",
      "Q(x, y, z, u) :- R(x, y), S(y, z), T(u, v).",
      "Q(x, z) :- P(x), P(z).",
      // A variable repeated inside an atom and across atoms: weighed
      // once. (A repeated head variable, Q(x, x), never reaches the VM;
      // see RepeatedHeadVariablesNeverCompile.)
      "Q(x, y) :- R(x, x), S(x, y).",
      "Q(x, y) :- R(x, y), S(y, x), T(x, x).",
      // Empty plans: an empty relation, and a join that never meets.
      "Q(x, y) :- R(x, y), Z(y).",
      "Q(x, y) :- R(x, y), Far(y).",
      // Boolean programs, satisfied and not.
      "Q() :- R(x, y), S(y, z).",
      "Q() :- R(x, y), Far(y).",
  };
  size_t max_height = 0;
  size_t max_cross = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Value domain = static_cast<Value>(4 + rng.Below(12));
    Database db;
    for (const char* name : {"R", "S", "T", "U", "R2"}) {
      Relation r(name, 2);
      const size_t rows = 1 + rng.Below(40);
      for (size_t i = 0; i < rows; ++i) {
        r.Add({static_cast<Value>(rng.Below(domain)) - 2,
               static_cast<Value>(rng.Below(domain))});
      }
      db.PutRelation(std::move(r));
    }
    for (const char* name : {"S3", "T3"}) {
      Relation r(name, 3);
      for (size_t i = 0, rows = 1 + rng.Below(40); i < rows; ++i) {
        r.Add({static_cast<Value>(rng.Below(domain)),
               static_cast<Value>(rng.Below(domain)),
               static_cast<Value>(rng.Below(domain))});
      }
      db.PutRelation(std::move(r));
    }
    Relation p("P", 1);
    for (size_t i = 0, rows = 1 + rng.Below(8); i < rows; ++i) {
      p.Add({static_cast<Value>(rng.Below(domain))});
    }
    db.PutRelation(std::move(p));
    db.PutRelation(Relation("Z", 1));
    Relation far("Far", 1);
    far.Add({1000});
    db.PutRelation(std::move(far));

    for (int threads : {1, 4}) {
      const ExecContext ctx{ExecOptions::Parallel(threads)};
      for (const char* text : queries) {
        const ConjunctiveQuery q = Q(text);
        Result<vm::Compilation> comp = vm::CompileQuery(q, db, ctx);
        ASSERT_TRUE(comp.ok()) << text << ": " << comp.status();
        ASSERT_TRUE(comp->ok()) << text << ": " << comp->fallback_reason;
        const vm::Program& prog = *comp->program;
        max_height = std::max(max_height, TreeHeight(prog));
        max_cross = std::max(max_cross, NumCrossEdges(prog));
        Relation answers("A", q.arity());
        for (const Tuple& t :
             DrainAll(vm::MakeProgramCursor(comp->program).get())) {
          if (q.arity() == 0) {
            answers.AddNullary();
          } else {
            answers.Add(t);
          }
        }
        for (uint8_t i = 0; i < kNumSemirings; ++i) {
          const SemiringId id = static_cast<SemiringId>(i);
          Result<SemiringValue> want = FoldAnswersSemiring(q, answers, id);
          ASSERT_TRUE(want.ok()) << want.status();
          Result<SemiringValue> got =
              vm::RunSemiring(prog, id, CancelToken());
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(*got, *want)
              << text << " seed " << seed << " threads " << threads << " "
              << SemiringName(id) << ": got " << got->Encode() << ", want "
              << want->Encode();
        }
      }
    }
  }
  // The cases above really reach deep plans and forests.
  EXPECT_GE(max_height, 3u);
  EXPECT_GE(max_cross, 1u);
}

TEST(VmCount, RepeatedHeadVariablesNeverCompile) {
  // ConjunctiveQuery::Validate rejects Q(x, x), so every program has
  // distinct head variables and weighs each one once.
  Database db = TinyGraph();
  ConjunctiveQuery q("Q", {"x", "x"}, {});
  Atom e;
  e.relation = "E";
  e.args = {Term::Var("x"), Term::Var("y")};
  q.AddAtom(e);
  Result<vm::Compilation> comp = vm::CompileQuery(q, db);
  ASSERT_FALSE(comp.ok());
  EXPECT_EQ(comp.status().code(), StatusCode::kInvalidArgument);
}

// ---- Plan node order ----------------------------------------------------------

/// Small free-connex cases whose child nodes are probed on a connector
/// that is not their leading column: Figure 1 (R(x1, x2) probed by x2), a
/// child probed on its second column, and a two-column connector in
/// trailing position.
struct OrderCase {
  const char* name;
  ConjunctiveQuery query;
  Database db;
};

std::vector<OrderCase> OrderCases() {
  std::vector<OrderCase> cases;
  Rng rng(20261);
  cases.push_back({"figure1", Figure1Query(), Figure1Database(400, 40, &rng)});
  Database e;
  e.PutRelation(RandomRelation("E", 2, 600, 50, &rng));
  e.PutRelation(RandomRelation("B", 1, 30, 50, &rng));
  cases.push_back({"second-column", Q("Q(x, y, z) :- E(x, y), E(z, y), B(y)."),
                   std::move(e)});
  Database t;
  t.PutRelation(RandomRelation("R", 3, 500, 8, &rng));
  t.PutRelation(RandomRelation("S", 3, 500, 8, &rng));
  cases.push_back({"two-column", Q("Q(x, y, z, w) :- R(x, y, z), S(w, y, z)."),
                   std::move(t)});
  return cases;
}

/// FNV-1a over the answer sequence, value by value, in emission order.
uint64_t SequenceHash(const std::vector<Tuple>& rows) {
  uint64_t h = 14695981039346656037ull;
  for (const Tuple& t : rows) {
    for (Value v : t) h = (h ^ static_cast<uint64_t>(v)) * 1099511628211ull;
  }
  return h;
}

TEST(VmPlan, NonRootNodesAreSortedConnectorFirst) {
  for (const OrderCase& c : OrderCases()) {
    TraceContext trace;
    Result<std::shared_ptr<const vm::Program>> prog = vm::CompileFreeConnex(
        c.query, c.db, ExecContext().WithTrace(&trace));
    ASSERT_TRUE(prog.ok()) << c.name << ": " << prog.status();
    const IndexedFreeConnexPlan& plan = *(*prog)->plan;
    ASSERT_FALSE(plan.empty) << c.name;
    size_t child_rows = 0;
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      if (plan.parent[i] < 0) continue;
      const PreparedAtom& node = plan.nodes[i];
      const PreparedAtom& parent = plan.nodes[plan.parent[i]];
      EXPECT_TRUE(node.rel.sorted()) << c.name << " node " << i;
      const std::vector<size_t>& pcols = plan.parent_cols[i];
      ASSERT_FALSE(pcols.empty()) << c.name << " node " << i;
      std::vector<size_t> lead(pcols.size());
      for (size_t j = 0; j < pcols.size(); ++j) {
        lead[j] = j;
        EXPECT_EQ(node.vars[j], parent.vars[pcols[j]])
            << c.name << " node " << i << " column " << j;
      }
      EXPECT_EQ(plan.indexes[i]->key_cols(), lead) << c.name << " node " << i;
      child_rows += node.rel.NumTuples();
    }
    // Every child index took the run build (the sweeps may add more).
    EXPECT_GE(trace.counter("index_run_build_rows"), child_rows) << c.name;
  }
}

TEST(VmPlan, ConnectorFirstNodesKeepTheEnumerationOrder) {
  // The answer sequences as the cursor emitted them before the child
  // nodes were stored connector-first: the reorder must not move one.
  const std::map<std::string, std::pair<size_t, uint64_t>> pinned = {
      {"figure1", {3283, 5204202721710928721ull}},
      {"second-column", {3064, 14345691711960791773ull}},
      {"two-column", {1636, 3566955981039217946ull}},
  };
  for (const OrderCase& c : OrderCases()) {
    Result<std::unique_ptr<AnswerEnumerator>> e =
        MakeConstantDelayEnumerator(c.query, c.db);
    ASSERT_TRUE(e.ok()) << c.name << ": " << e.status();
    const std::vector<Tuple> rows = DrainAll(e->get());
    EXPECT_EQ(rows.size(), pinned.at(c.name).first) << c.name;
    EXPECT_EQ(SequenceHash(rows), pinned.at(c.name).second) << c.name;
  }
}

// ---- Engine routes -----------------------------------------------------------

TEST(VmEngine, FreeConnexRunsOnTheVm) {
  Database db = TinyGraph();
  Engine engine;
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  Result<ExecResult> r = engine.Run(ExecRequest(q, db));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->algorithm, "constant-delay-enumeration+vm");
  Result<std::unique_ptr<AnswerEnumerator>> e = engine.Enumerate(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  std::vector<Tuple> rows = DrainAll(e->get());
  EXPECT_EQ(std::set<Tuple>(rows.begin(), rows.end()), Rows(r->answers));
}

TEST(VmEngine, OtherClassesKeepTheirAlgorithms) {
  Database db = TinyGraph();
  Engine engine;
  // Boolean Run stays the semijoin sweep; general acyclic queries and
  // disequalities never reach the VM.
  const struct {
    const char* text;
    const char* algorithm;
  } cases[] = {
      {"Q() :- E(x, y), B(y).", "boolean-semijoin-sweep"},
      {"Q(x, z) :- E(x, y), E(y, z).", "yannakakis"},
      {"Q(x, y) :- E(x, y), x != y.", "neq-witness-elimination"},
  };
  for (const auto& c : cases) {
    const ConjunctiveQuery q = Q(c.text);
    Result<ExecResult> r = engine.Run(ExecRequest(q, db));
    ASSERT_TRUE(r.ok()) << c.text << ": " << r.status();
    EXPECT_EQ(r->algorithm, c.algorithm) << c.text;
  }
}

}  // namespace
}  // namespace fgq
