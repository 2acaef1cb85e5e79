#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "fgq/count/acq_count.h"
#include "fgq/count/fields.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/workload/generators.h"

/// Experiment E14 (Theorem 4.21): quantifier-free weighted #ACQ in a
/// single join-tree pass: compile the free-connex plan, then fold it. The
/// pass must scale linearly in ||D|| even when the answer set is
/// quadratic or worse — the whole point versus the materialize-then-count
/// baseline. BM_CountQuantifierFreePath keeps a BigInt per row
/// (BigIntField); BM_CountAcqPath is the counting entry point itself, on
/// the checked uint64_t carrier.

namespace fgq {
namespace {

void BM_CountQuantifierFreePath(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(61);
  // Dense-ish: answer count far exceeds ||D||.
  Database db = PathDatabase(k, n, static_cast<Value>(n / 8 + 4), &rng);
  ConjunctiveQuery q = FullPathQuery(k);
  std::string count;
  auto ones = [](Value) { return BigInt(1); };
  for (auto _ : state) {
    auto c = SumProductAcq(q, db, BigIntField{ones});
    if (!c.ok()) state.SkipWithError(c.status().ToString().c_str());
    count = c->ToString();
    benchmark::DoNotOptimize(c);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["count_digits"] = static_cast<double>(count.size());
}
BENCHMARK(BM_CountQuantifierFreePath)
    ->ArgsProduct({{2, 4, 6}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMillisecond);

void BM_CountAcqPath(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(61);
  Database db = PathDatabase(k, n, static_cast<Value>(n / 8 + 4), &rng);
  ConjunctiveQuery q = FullPathQuery(k);
  std::string count;
  for (auto _ : state) {
    auto c = CountAcq(q, db);
    if (!c.ok()) state.SkipWithError(c.status().ToString().c_str());
    count = c->ToString();
    benchmark::DoNotOptimize(c);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["count_digits"] = static_cast<double>(count.size());
}
BENCHMARK(BM_CountAcqPath)
    ->ArgsProduct({{2, 4, 6}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMillisecond);

void BM_CountByMaterializing(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(61);
  Database db = PathDatabase(k, n, static_cast<Value>(n / 8 + 4), &rng);
  ConjunctiveQuery q = FullPathQuery(k);
  for (auto _ : state) {
    auto res = EvaluateYannakakis(q, db);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    benchmark::DoNotOptimize(res->NumTuples());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_CountByMaterializing)
    ->ArgsProduct({{2, 4}, {1 << 10, 1 << 12, 1 << 14}})
    ->Unit(benchmark::kMillisecond);

/// Field ablation: the fold's cost across coefficient domains. BigInt pays
/// for exactness; Z_p and int64 are near-free.
template <typename Field>
void FieldBench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(62);
  Database db = PathDatabase(4, n, static_cast<Value>(n / 8 + 4), &rng);
  ConjunctiveQuery q = FullPathQuery(4);
  auto ones = [](Value) { return typename Field::ValueType(1); };
  for (auto _ : state) {
    auto c = SumProductAcq(q, db, Field{ones});
    if (!c.ok()) state.SkipWithError(c.status().ToString().c_str());
    benchmark::DoNotOptimize(c);
  }
  state.counters["n"] = static_cast<double>(n);
}
void BM_CountFieldBigInt(benchmark::State& state) {
  FieldBench<BigIntField>(state);
}
void BM_CountFieldMod(benchmark::State& state) {
  FieldBench<ModField<1000000007>>(state);
}
void BM_CountFieldInt64(benchmark::State& state) {
  FieldBench<Int64Field>(state);
}
void BM_CountFieldDouble(benchmark::State& state) {
  FieldBench<DoubleField>(state);
}
BENCHMARK(BM_CountFieldBigInt)->Arg(1 << 14)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountFieldMod)->Arg(1 << 14)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountFieldInt64)->Arg(1 << 14)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountFieldDouble)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

/// Weighted aggregation (the #F-ACQ generalization): weights w(v) = v.
void BM_WeightedAggregation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(63);
  Database db = PathDatabase(3, n, static_cast<Value>(n / 8 + 4), &rng);
  ConjunctiveQuery q = FullPathQuery(3);
  auto w = [](Value v) { return static_cast<double>(v) * 1e-3; };
  for (auto _ : state) {
    auto c = SumProductAcq(q, db, DoubleField{w});
    if (!c.ok()) state.SkipWithError(c.status().ToString().c_str());
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_WeightedAggregation)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
