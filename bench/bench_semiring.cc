// Semiring benchmarks: the count verb under every SemiringId, cached
// serve path and raw VM fold (EXPERIMENTS.md E29, E33).
//
// The acceptance bar for the generalized DP is that a cached-serve
// semiring aggregate stays within 1.3x of the counting one. The serving
// layer memoizes every count-verb aggregate, counting included, on the
// query's one plan-cache entry, so each BM_ServeCount* row is a memoized
// hit: the first request under a semiring runs the fold, and every
// later one returns the stored value. BM_VmCount* isolates the raw VM
// fold: one pass over the program's nodes, in which the weighted
// instances legitimately pay for folding the weighted leaf's groups
// while counting reads a weightless leaf's group sizes off the probe.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "fgq/count/semiring.h"
#include "fgq/serve/query_service.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// --- Cached serve: count verb per semiring -------------------------------

// BM_ServeCachedCount (bench_service.cc) generalized by semiring: warm
// the entry's memo slot once, then measure steady-state count requests.
// The counting row is the baseline the other rows are gated against
// (tools/check_bench_regression.py --semiring-ratio).
void ServeCountUnder(benchmark::State& state, SemiringId id) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(7);
  SnapshotStore store(
      Figure1Database(tuples, static_cast<Value>(tuples / 4), &rng));
  ConjunctiveQuery q = Figure1Query();
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&store, opts);
  {
    ServiceRequest warm;
    warm.query = q;
    warm.verb = ServeVerb::kCount;
    warm.semiring = id;
    service.Submit(std::move(warm)).get();
  }
  for (auto _ : state) {
    ServiceRequest req;
    req.query = q;
    req.verb = ServeVerb::kCount;
    req.semiring = id;
    ServiceResponse resp = service.Submit(std::move(req)).get();
    if (!resp.status.ok()) state.SkipWithError(resp.status.ToString().c_str());
    benchmark::DoNotOptimize(resp.count);
    benchmark::DoNotOptimize(resp.semiring_value);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["semiring"] = static_cast<double>(id);
}

void BM_ServeCountCounting(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kCounting);
}
BENCHMARK(BM_ServeCountCounting)->Arg(10000)->Arg(100000);

void BM_ServeCountBoolean(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kBoolean);
}
BENCHMARK(BM_ServeCountBoolean)->Arg(10000)->Arg(100000);

void BM_ServeCountMinPlus(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kMinPlus);
}
BENCHMARK(BM_ServeCountMinPlus)->Arg(10000)->Arg(100000);

void BM_ServeCountMaxMin(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kMaxMin);
}
BENCHMARK(BM_ServeCountMaxMin)->Arg(10000)->Arg(100000);

void BM_ServeCountTopK(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kTopK);
}
BENCHMARK(BM_ServeCountTopK)->Arg(10000)->Arg(100000);

// --- Raw VM fold: vm::RunSemiring per semiring -----------------------------

// Compiles Figure 1's free-connex query once and replays the fold; no
// service, no cache.
void VmCountUnder(benchmark::State& state, SemiringId id) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(tuples, static_cast<Value>(tuples / 4), &rng);
  ConjunctiveQuery q = Figure1Query();
  Result<vm::Compilation> comp = vm::CompileQuery(q, db);
  if (!comp.ok() || !comp->ok()) {
    state.SkipWithError("Figure1Query did not compile");
    return;
  }
  CancelToken cancel;
  for (auto _ : state) {
    Result<SemiringValue> v =
        vm::RunSemiring(*comp->program, id, cancel, nullptr);
    if (!v.ok()) state.SkipWithError(v.status().ToString().c_str());
    benchmark::DoNotOptimize(*v);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["semiring"] = static_cast<double>(id);
}

void BM_VmCountCounting(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kCounting);
}
BENCHMARK(BM_VmCountCounting)->Arg(100000);

void BM_VmCountBoolean(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kBoolean);
}
BENCHMARK(BM_VmCountBoolean)->Arg(100000);

void BM_VmCountMinPlus(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kMinPlus);
}
BENCHMARK(BM_VmCountMinPlus)->Arg(100000);

void BM_VmCountMaxMin(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kMaxMin);
}
BENCHMARK(BM_VmCountMaxMin)->Arg(100000);

void BM_VmCountTopK(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kTopK);
}
BENCHMARK(BM_VmCountTopK)->Arg(100000);

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
