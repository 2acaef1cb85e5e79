#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_json.h"

#include "fgq/eval/enumerate.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/util/delay_recorder.h"
#include "fgq/workload/generators.h"

/// Experiments E8/E9 (Theorems 4.3 and 4.6): enumeration delay.
///
/// The paper's headline distinction is between *linear* delay (any ACQ,
/// Algorithm 2) and *constant* delay (free-connex ACQ). We measure the
/// inter-output gap distribution while the database grows: the
/// constant-delay enumerator's curve must stay flat; Algorithm 2's delay
/// grows with ||D||; the materializing baseline hides everything in
/// preprocessing (flat replay delay but full evaluation up front).
/// Besides max and mean we report p50/p95/p99: the max alone is dominated
/// by scheduler hiccups, while the percentiles cleanly separate a flat
/// delay profile from a genuinely linear one.

namespace fgq {
namespace {

Database FreeConnexDb(size_t n, Rng* rng) {
  // Q(x, y) :- R(x, w), S(y, z), B(z): free-connex with ~n answers when
  // relations are sparse.
  Database db;
  Value domain = static_cast<Value>(n);
  db.PutRelation(RandomRelation("R", 2, n, domain, rng));
  db.PutRelation(RandomRelation("S", 2, n, domain, rng));
  db.PutRelation(RandomRelation("B", 1, n / 4 + 1, domain, rng));
  db.DeclareDomainSize(domain);
  return db;
}

ConjunctiveQuery FreeConnexQuery() {
  ConjunctiveQuery q("Q", {"x", "y"}, {});
  Atom r, s, b;
  r.relation = "R";
  r.args = {Term::Var("x"), Term::Var("w")};
  s.relation = "S";
  s.args = {Term::Var("y"), Term::Var("z")};
  b.relation = "B";
  b.args = {Term::Var("z")};
  q.AddAtom(r);
  q.AddAtom(s);
  q.AddAtom(b);
  return q;
}

/// Drains up to `limit` answers, recording delays. Returns the recorder.
DelayRecorder Drain(AnswerEnumerator* e, int64_t limit) {
  DelayRecorder rec;
  rec.StartEnumeration();
  Tuple t;
  int64_t k = 0;
  while (k < limit && e->Next(&t)) {
    benchmark::DoNotOptimize(t);
    rec.RecordOutput();
    ++k;
  }
  return rec;
}

constexpr int64_t kOutputs = 4096;

void BM_ConstantDelayEnumeration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Database db = FreeConnexDb(n, &rng);
  ConjunctiveQuery q = FreeConnexQuery();
  DelayRecorder last;
  for (auto _ : state) {
    auto e = MakeConstantDelayEnumerator(q, db);
    if (!e.ok()) state.SkipWithError(e.status().ToString().c_str());
    last = Drain(e->get(), kOutputs);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["max_delay_ns"] = static_cast<double>(last.max_delay_ns());
  state.counters["mean_delay_ns"] = last.mean_delay_ns();
  state.counters["p50_delay_ns"] = static_cast<double>(last.p50_delay_ns());
  state.counters["p95_delay_ns"] = static_cast<double>(last.p95_delay_ns());
  state.counters["p99_delay_ns"] = static_cast<double>(last.p99_delay_ns());
  // One traced build + drain outside the timed loop: attributes the
  // preprocessing (prepare / sweeps / projection / index build) that the
  // delay percentiles deliberately exclude.
  TraceContext trace;
  auto traced =
      MakeConstantDelayEnumerator(q, db, ExecContext().WithTrace(&trace));
  if (traced.ok()) {
    Drain(traced->get(), kOutputs);
    benchjson::AddTraceCounters(state, trace);
  }
}
BENCHMARK(BM_ConstantDelayEnumeration)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond);

void BM_LinearDelayEnumeration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Database db = FreeConnexDb(n, &rng);
  ConjunctiveQuery q = FreeConnexQuery();
  DelayRecorder last;
  for (auto _ : state) {
    auto e = MakeLinearDelayEnumerator(q, db);
    if (!e.ok()) state.SkipWithError(e.status().ToString().c_str());
    last = Drain(e->get(), /*limit=*/128);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["max_delay_ns"] = static_cast<double>(last.max_delay_ns());
  state.counters["mean_delay_ns"] = last.mean_delay_ns();
  state.counters["p50_delay_ns"] = static_cast<double>(last.p50_delay_ns());
  state.counters["p95_delay_ns"] = static_cast<double>(last.p95_delay_ns());
  state.counters["p99_delay_ns"] = static_cast<double>(last.p99_delay_ns());
}
BENCHMARK(BM_LinearDelayEnumeration)
    ->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMillisecond);

/// Baseline: materialize everything, then replay. The replay delay is
/// flat, but the time-to-first-answer equals the full evaluation.
void BM_MaterializeThenReplay(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Database db = FreeConnexDb(n, &rng);
  ConjunctiveQuery q = FreeConnexQuery();
  double preprocessing_ns = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto all = EvaluateYannakakis(q, db);
    if (!all.ok()) state.SkipWithError(all.status().ToString().c_str());
    auto e = MakeMaterializedEnumerator(std::move(*all));
    preprocessing_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    DelayRecorder rec = Drain(e.get(), kOutputs);
    benchmark::DoNotOptimize(rec);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["time_to_first_ns"] = preprocessing_ns;
}
// The output is quadratic in n here, so the baseline is capped at 2^12
// (by 2^14 it would materialize ~10^8 answers — which is the point).
BENCHMARK(BM_MaterializeThenReplay)
    ->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond);

/// The microbenchmark twin of fgq-bench's analytic enumerate call: the
/// Figure 1 query over ServeWorkloadDatabase(n), compiled (reduction,
/// free projection, index build), then drained. `first_answer_ms` is the
/// compile plus the first answer; `delay_ns` is the mean gap over the
/// rest of the drain. Both are means over the iterations.
void BM_EnumerateFigure1(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const size_t n = static_cast<size_t>(state.range(0));
  const Database db = ServeWorkloadDatabase(n, 11);
  const ConjunctiveQuery q = Figure1Query();
  double first_ms = 0, delay_ns = 0;
  uint64_t answers = 0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    auto e = MakeConstantDelayEnumerator(q, db);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    Tuple t;
    answers = (*e)->Next(&t) ? 1 : 0;
    const Clock::time_point t1 = Clock::now();
    while ((*e)->Next(&t)) ++answers;
    const Clock::time_point t2 = Clock::now();
    first_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (answers > 1) {
      delay_ns += std::chrono::duration<double, std::nano>(t2 - t1).count() /
                  static_cast<double>(answers - 1);
    }
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["n"] = static_cast<double>(n);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["first_answer_ms"] = first_ms / iters;
  state.counters["delay_ns"] = delay_ns / iters;
}
BENCHMARK(BM_EnumerateFigure1)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond);

/// Preprocessing time of the constant-delay enumerator: must be linear.
void BM_ConstantDelayPreprocessing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Database db = FreeConnexDb(n, &rng);
  ConjunctiveQuery q = FreeConnexQuery();
  for (auto _ : state) {
    auto e = MakeConstantDelayEnumerator(q, db);
    benchmark::DoNotOptimize(e);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ConstantDelayPreprocessing)
    ->Range(1 << 10, 1 << 17)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
