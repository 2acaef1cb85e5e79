#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "fgq/db/index.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
#include "fgq/workload/generators.h"

/// Experiment E7 (Theorem 4.2): Yannakakis evaluates an acyclic join in
/// O(||phi|| * ||D|| * ||phi(D)||). We sweep the database size for path
/// queries of several lengths and compare against the left-deep
/// materializing baseline, whose intermediate results are not output-
/// bounded. The expected shape: Yannakakis scales near-linearly in
/// ||D|| + ||out||; the baseline blows up whenever intermediates exceed
/// the output.

namespace fgq {
namespace {

void BM_YannakakisPath(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(1234);
  // Sparse relations keep |out| comparable to n.
  Database db = PathDatabase(k, n, static_cast<Value>(n), &rng);
  ConjunctiveQuery q = PathQuery(k);
  size_t out_size = 0;
  for (auto _ : state) {
    auto res = EvaluateYannakakis(q, db);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    out_size = res->NumTuples();
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["answers"] = static_cast<double>(out_size);
  // One traced run outside the timed loop: per-phase attribution
  // (prepare / sweeps / assembly) without perturbing the measurement.
  TraceContext trace;
  auto traced = EvaluateYannakakis(q, db, ExecContext().WithTrace(&trace));
  if (traced.ok()) benchjson::AddTraceCounters(state, trace);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_YannakakisPath)
    ->ArgsProduct({{2, 3, 4}, {1 << 10, 1 << 12, 1 << 14, 1 << 16}})
    ->Unit(benchmark::kMillisecond);

void BM_JoinMaterializeBaseline(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(1234);
  Database db = PathDatabase(k, n, static_cast<Value>(n), &rng);
  ConjunctiveQuery q = PathQuery(k);
  for (auto _ : state) {
    auto res = EvaluateJoinMaterialize(q, db);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_JoinMaterializeBaseline)
    ->ArgsProduct({{2, 3, 4}, {1 << 10, 1 << 12, 1 << 14}})
    ->Unit(benchmark::kMillisecond);

/// Dense instance: every intermediate of the baseline is quadratic while
/// the (Boolean) output keeps Yannakakis linear.
void BM_YannakakisBooleanDense(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(99);
  // Domain sqrt(n): heavy skew, intermediates explode.
  Value domain = static_cast<Value>(std::max<size_t>(4, n / 64));
  Database db = PathDatabase(3, n, domain, &rng);
  ConjunctiveQuery q("B", {}, PathQuery(3).atoms());
  for (auto _ : state) {
    auto res = EvaluateBooleanAcq(q, db);
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_YannakakisBooleanDense)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);

/// Boolean Figure-1 query (Theorem 4.2's decision): one bottom-up semijoin
/// sweep over the prepared atoms, expected linear in ||D||. The microbench
/// twin of fgq-bench's `decide_ms`; the atoms share the database's
/// columns, so the sweep is the whole cost.
void BM_DecideFigure1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(n, static_cast<Value>(n / 4 + 4), &rng);
  const ConjunctiveQuery figure1 = Figure1Query();
  const ConjunctiveQuery q("B", {}, figure1.atoms());
  for (auto _ : state) {
    auto res = EvaluateBooleanAcq(q, db);
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(n);
  TraceContext trace;
  auto traced = EvaluateBooleanAcq(q, db, ExecContext().WithTrace(&trace));
  if (traced.ok()) benchjson::AddTraceCounters(state, trace);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DecideFigure1)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

/// Full reduction alone (the preprocessing phase shared by counting and
/// constant-delay enumeration): expected linear in ||D||.
void BM_FullReduce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(n, static_cast<Value>(n / 4 + 4), &rng);
  ConjunctiveQuery q = Figure1Query();
  for (auto _ : state) {
    auto rq = FullReduce(q, db);
    benchmark::DoNotOptimize(rq);
  }
  state.counters["n"] = static_cast<double>(n);
  TraceContext trace;
  auto traced = FullReduce(q, db, ExecContext().WithTrace(&trace));
  if (traced.ok()) benchjson::AddTraceCounters(state, trace);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FullReduce)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// ---- Canonical sort/dedup (Relation::SortDedup) -----------------------------
//
// The one sort every materializing path pays. Values from a 5e4-id domain
// (16 bits per column) take the packed-key radix kernel; BM_SortDedupWide
// spreads column 0 over all of int64, so the rows no longer pack into 64
// bits and the comparator fallback runs. About a tenth of the rows repeat.

Relation SortDedupInput(size_t arity, size_t n, bool wide) {
  Rng rng(17);
  Relation r("R", arity);
  Tuple t(arity);
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 == 9) {
      t = r.Row(i / 2).ToTuple();
    } else {
      for (size_t c = 0; c < arity; ++c) {
        t[c] = wide && c == 0 ? static_cast<Value>(rng.Next())
                              : static_cast<Value>(rng.Below(50000));
      }
    }
    r.Add(t);
  }
  return r;
}

void RunSortDedup(benchmark::State& state, bool wide) {
  const size_t arity = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const Relation input = SortDedupInput(arity, n, wide);
  for (auto _ : state) {
    state.PauseTiming();
    Relation r = input;
    state.ResumeTiming();
    r.SortDedup();
    benchmark::DoNotOptimize(r.NumTuples());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
}

void BM_SortDedup(benchmark::State& state) { RunSortDedup(state, false); }
BENCHMARK(BM_SortDedup)
    ->ArgsProduct({{2, 3}, {1 << 12, 1 << 16, 1 << 20}})
    ->Unit(benchmark::kMicrosecond);

void BM_SortDedupWide(benchmark::State& state) { RunSortDedup(state, true); }
BENCHMARK(BM_SortDedupWide)
    ->ArgsProduct({{2, 3}, {1 << 12, 1 << 16, 1 << 20}})
    ->Unit(benchmark::kMicrosecond);

// ---- Join assembly (JoinProject) --------------------------------------------
//
// The one materializing join of the 2-path Q(x1, x3) :- E1(x1, x2),
// E2(x2, x3) — Theorem 4.2's last step, and the S-component its count
// materializes — on the fully reduced 2e5-row E1/E2 of
// ServeWorkloadDatabase (fgq-bench's analytic database). Arg 0 passes the
// atoms in join-tree order (root first, as Yannakakis does); arg 1 swaps
// them. The output is the same set either way. The second arg is the
// thread count (1 = serial; 4 splits the probe into 4096-row morsels).

void BM_JoinProject(benchmark::State& state) {
  const bool tree_order = state.range(0) == 0;
  ExecOptions opts;
  opts.num_threads = static_cast<int>(state.range(1));
  const ExecContext ctx(opts);
  const Database db = ServeWorkloadDatabase(200000, 1);
  auto rq = FullReduce(PathQuery(2), db);
  if (!rq.ok()) {
    state.SkipWithError(rq.status().ToString().c_str());
    return;
  }
  const PreparedAtom& root = rq->atoms[static_cast<size_t>(rq->tree.root)];
  const PreparedAtom& child = rq->atoms[rq->tree.root == 0 ? 1 : 0];
  const PreparedAtom& left = tree_order ? root : child;
  const PreparedAtom& right = tree_order ? child : root;
  const std::vector<std::string> keep = {"x1", "x3"};
  size_t rows = 0;
  for (auto _ : state) {
    PreparedAtom out = JoinProject(left, right, keep, ctx);
    rows = out.rel.NumTuples();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = static_cast<double>(state.range(1));
  TraceContext trace;
  JoinProject(left, right, keep, ExecContext().WithTrace(&trace));
  benchjson::AddTraceCounters(state, trace);
}
BENCHMARK(BM_JoinProject)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// ---- Data-plane kernel microbenchmarks (EXPERIMENTS.md E25) ----------------
//
// The two kernels every algorithm class bottoms out in: the O(N) hash-index
// build and the semijoin sweeps of full reduction. Benchmarked at two key
// distributions — near-unique keys and a 64-value hot set (heavy
// duplication, the open-addressing worst case).

void BM_HashIndexBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Value domain = static_cast<Value>(state.range(1));
  Rng rng(5);
  Relation r = RandomRelation("R", 2, n, domain, &rng);
  r.SortDedup();
  for (auto _ : state) {
    HashIndex idx(r, {0});
    benchmark::DoNotOptimize(idx.NumKeys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(r.NumTuples()));
  state.counters["n"] = static_cast<double>(r.NumTuples());
  state.counters["keys"] =
      static_cast<double>(HashIndex(r, {0}).NumKeys());
}
BENCHMARK(BM_HashIndexBuild)
    ->ArgsProduct({{1 << 14, 1 << 17}, {64, 1 << 16}})
    ->Unit(benchmark::kMicrosecond);

/// BM_HashIndexBuild keys a sorted relation on its leading column, which
/// takes the run build; keyed on column 1 the same rows take the hashing
/// builder, which keeps it measured.
void BM_HashIndexBuildUnsorted(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Value domain = static_cast<Value>(state.range(1));
  Rng rng(5);
  Relation r = RandomRelation("R", 2, n, domain, &rng);
  r.SortDedup();
  for (auto _ : state) {
    HashIndex idx(r, {1});
    benchmark::DoNotOptimize(idx.NumKeys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(r.NumTuples()));
  state.counters["n"] = static_cast<double>(r.NumTuples());
  state.counters["keys"] = static_cast<double>(HashIndex(r, {1}).NumKeys());
}
BENCHMARK(BM_HashIndexBuildUnsorted)
    ->ArgsProduct({{1 << 14, 1 << 17}, {64, 1 << 16}})
    ->Unit(benchmark::kMicrosecond);

void BM_HashIndexProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Value domain = static_cast<Value>(state.range(1));
  Rng rng(5);
  Relation r = RandomRelation("R", 2, n, domain, &rng);
  r.SortDedup();
  Relation probe = RandomRelation("P", 2, n, domain, &rng);
  HashIndex idx(r, {0});
  const std::vector<size_t> cols = {0};
  for (auto _ : state) {
    uint64_t hits = idx.CountProbeRows(probe, cols, 0, probe.NumTuples());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probe.NumTuples()));
}
BENCHMARK(BM_HashIndexProbe)
    ->ArgsProduct({{1 << 14, 1 << 17}, {64, 1 << 16}})
    ->Unit(benchmark::kMicrosecond);

/// The two semijoin sweeps in isolation (atom preparation hoisted out);
/// the per-iteration atom copy is a flat memcpy, identical on both sides
/// of any data-plane change.
void BM_SemijoinSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(n, static_cast<Value>(n / 4 + 4), &rng);
  ConjunctiveQuery q = Figure1Query();
  auto atoms = PrepareAtoms(q, db);
  if (!atoms.ok()) {
    state.SkipWithError(atoms.status().ToString().c_str());
    return;
  }
  Hypergraph hg = Hypergraph::FromQuery(q);
  GyoResult gyo = GyoReduce(hg);
  for (auto _ : state) {
    std::vector<PreparedAtom> a = *atoms;
    SemijoinSweepBottomUp(&a, gyo.tree);
    SemijoinSweepTopDown(&a, gyo.tree);
    benchmark::DoNotOptimize(a);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_SemijoinSweep)
    ->Range(1 << 12, 1 << 17)
    ->Unit(benchmark::kMicrosecond);

// --- fgq::vm: the constant-delay enumerator and the counting fold -------

/// Shared fixture: the Figure 1 free-connex query, compiled once (exactly
/// like the serving layer's cache), so the measured loop is pure
/// enumeration — odometer walk + probes + output assembly.
struct VmFixture {
  Database db;
  ConjunctiveQuery q;
  std::shared_ptr<const vm::Program> program;

  static Result<VmFixture> Make(size_t n) {
    VmFixture f;
    Rng rng(1234);
    f.db = Figure1Database(n, static_cast<Value>(n / 4 + 4), &rng);
    f.q = Figure1Query();
    FGQ_ASSIGN_OR_RETURN(f.program, vm::CompileFreeConnex(f.q, f.db));
    return f;
  }
};

void BM_VmEnumerate(benchmark::State& state) {
  Result<VmFixture> f = VmFixture::Make(static_cast<size_t>(state.range(0)));
  if (!f.ok()) {
    state.SkipWithError(f.status().ToString().c_str());
    return;
  }
  size_t answers = 0;
  for (auto _ : state) {
    std::unique_ptr<AnswerEnumerator> e = vm::MakeProgramCursor(f->program);
    Tuple t;
    answers = 0;
    while (e->Next(&t)) ++answers;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_VmEnumerate)
    ->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_VmCount(benchmark::State& state) {
  Result<VmFixture> f = VmFixture::Make(static_cast<size_t>(state.range(0)));
  if (!f.ok()) {
    state.SkipWithError(f.status().ToString().c_str());
    return;
  }
  BigInt count;
  for (auto _ : state) {
    Result<SemiringValue> n =
        vm::RunSemiring(*f->program, SemiringId::kCounting, CancelToken());
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      break;
    }
    count = std::move(n->count);
    benchmark::DoNotOptimize(count);
  }
  state.counters["answers"] = count.ToDouble();
}
BENCHMARK(BM_VmCount)
    ->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
