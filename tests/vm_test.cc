// Unit tests of fgq::vm, the executor of every Boolean and free-connex
// plan: lowering, program structure, the switch-threaded cursor, the
// fused count stream, and the engine routes that run it. The fuzzer
// (fuzz_check) additionally diffs every random case against the
// brute-force reference; these tests pin the specific shapes the compiler
// promises.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fgq/eval/engine.h"
#include "fgq/query/parser.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

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
  EXPECT_FALSE(comp.program->count_code.empty());
  // Both streams terminate.
  EXPECT_EQ(comp.program->code.back().op, vm::Op::kHalt);
  EXPECT_EQ(comp.program->count_code.back().op, vm::Op::kHalt);
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

TEST(VmCompile, DisassemblyListsBothStreams) {
  Database db = TinyGraph();
  vm::Compilation comp = Compile(Q("Q(x, y) :- E(x, y), B(y)."), db);
  ASSERT_TRUE(comp.ok());
  const std::string dis = comp.program->Disassemble();
  EXPECT_NE(dis.find("code:"), std::string::npos);
  EXPECT_NE(dis.find("count_code:"), std::string::npos);
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

// ---- The count stream -------------------------------------------------------

TEST(VmCount, MatchesEnumerationAndFusesTheInnermostLoop) {
  Database db = TinyGraph();
  const ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  vm::Compilation comp = Compile(q, db);
  ASSERT_TRUE(comp.ok());
  Result<SemiringValue> n =
      vm::RunSemiring(*comp.program, SemiringId::kCounting, CancelToken());
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n->count, BigInt::FromUint64(2));
  // The counting stream must use the span-fused opcode rather than
  // per-answer kCount.
  bool fused = false;
  for (const vm::Insn& in : comp.program->count_code) {
    fused = fused || in.op == vm::Op::kCountSpan;
  }
  EXPECT_TRUE(fused);
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

TEST(VmCount, CancellationReachesSpanFusedSweeps) {
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
