// Service-layer benchmarks: plan-cache speedup and end-to-end throughput
// under a mixed workload (EXPERIMENTS.md E-service entries).
//
// The point of the serving layer is amortization: preparing a free-connex
// query is O(||D||) (full reduction + index builds) while answering from
// a cached plan is output-linear. ServeColdVsCached measures exactly that
// gap; ServeMixedThroughput pushes a light/heavy request mix through the
// bounded queue and reports requests/sec plus the cache hit rate.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <chrono>
#include <future>
#include <vector>

#include "fgq/serve/query_service.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// --- Cold vs cached: the same free-connex query repeated -----------------

void BM_ServeCold(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(7);
  SnapshotStore store(
      Figure1Database(tuples, static_cast<Value>(tuples / 4), &rng));
  ConjunctiveQuery q = Figure1Query();
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&store, opts);
  for (auto _ : state) {
    // A fresh key every iteration: clearing the cache forces the full
    // Theorem 4.6 preprocessing.
    service.cache().Clear();
    ServiceRequest req;
    req.query = q;
    ServiceResponse resp = service.Submit(std::move(req)).get();
    if (!resp.status.ok()) state.SkipWithError(resp.status.ToString().c_str());
    benchmark::DoNotOptimize(resp.answers);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_ServeCold)->Arg(1000)->Arg(10000)->Arg(100000);

// A cached hit: the plan cache hands back the fgq::vm program and the
// request runs its cursor (rows) or its fold (count).
// `limit` caps the rows verb (0 = every answer).
void ServeCached(benchmark::State& state, ServeVerb verb, uint64_t limit = 0) {
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
    warm.verb = verb;
    service.Submit(std::move(warm)).get();  // Populate the cache.
  }
  for (auto _ : state) {
    ServiceRequest req;
    req.query = q;
    req.verb = verb;
    req.limit = limit;
    ServiceResponse resp = service.Submit(std::move(req)).get();
    if (!resp.status.ok()) state.SkipWithError(resp.status.ToString().c_str());
    if (verb == ServeVerb::kCount) {
      benchmark::DoNotOptimize(resp.count);
    } else {
      benchmark::DoNotOptimize(resp.answers);
    }
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["hit_rate"] =
      static_cast<double>(service.cache().hits()) /
      static_cast<double>(service.cache().hits() + service.cache().misses());
}

void BM_ServeCached(benchmark::State& state) {
  ServeCached(state, ServeVerb::kRows);
}
BENCHMARK(BM_ServeCached)->Arg(1000)->Arg(10000)->Arg(100000);

// The wire mix's rows request (fgq-bench reads 32 rows): a bounded hit,
// answered on the submitting thread with no queue or worker handoff.
void BM_ServeCachedLimit(benchmark::State& state) {
  ServeCached(state, ServeVerb::kRows, 32);
}
BENCHMARK(BM_ServeCachedLimit)->Arg(1000)->Arg(10000)->Arg(100000);

// The count verb on a cached entry is a memoized hit like every other
// semiring: the warm-up runs the fold once, later requests read
// the stored aggregate. BENCH_PR7.json records it under the same name,
// from when every hit re-ran the count.
void BM_ServeCachedCount(benchmark::State& state) {
  ServeCached(state, ServeVerb::kCount);
}
BENCHMARK(BM_ServeCachedCount)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Mixed workload throughput -------------------------------------------

// A rotating mix: mostly repeated free-connex queries (cacheable), some
// general-acyclic paths, and a trickle of cyclic triangle queries that the
// heavy lane throttles.
std::vector<ConjunctiveQuery> MixedWorkload() {
  std::vector<ConjunctiveQuery> qs;
  for (size_t i = 0; i < 6; ++i) qs.push_back(Figure1Query());
  qs.push_back(PathQuery(2));
  qs.push_back(PathQuery(3));
  // The triangle over E1/E2/E3 (cyclic -> backtracking oracle, heavy lane).
  qs.push_back(ConjunctiveQuery(
      "Tri", {"x"},
      {Atom{"E1", {Term::Var("x"), Term::Var("y")}, false},
       Atom{"E2", {Term::Var("y"), Term::Var("z")}, false},
       Atom{"E3", {Term::Var("z"), Term::Var("x")}, false}}));
  return qs;
}

void BM_ServeMixedThroughput(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  Rng rng(11);
  Database db = Figure1Database(2000, 300, &rng);
  // PathQuery/triangle relations E1..E3 over the same domain.
  Database paths = PathDatabase(3, 2000, 300, &rng);
  for (const auto& name : {"E1", "E2", "E3"}) {
    auto r = paths.Find(name);
    if (r.ok()) db.AddRelation(**r);
  }
  std::vector<ConjunctiveQuery> qs = MixedWorkload();
  ServiceOptions opts;
  opts.num_workers = workers;
  opts.max_pending = 256;
  SnapshotStore store(std::move(db));
  QueryService service(&store, opts);
  // Warm the cache with one pass over the distinct queries: the steady
  // state is what throughput means here; BM_ServeCold covers cold costs.
  for (const ConjunctiveQuery& q : qs) {
    ServiceRequest req;
    req.query = q;
    service.Submit(std::move(req)).get();
  }
  size_t issued = 0;
  for (auto _ : state) {
    std::vector<std::future<ServiceResponse>> futs;
    futs.reserve(64);
    for (size_t i = 0; i < 64; ++i) {
      ServiceRequest req;
      req.query = qs[(issued + i) % qs.size()];
      req.timeout = std::chrono::seconds(30);
      futs.push_back(service.Submit(std::move(req)));
    }
    issued += 64;
    for (auto& f : futs) {
      ServiceResponse resp = f.get();
      if (!resp.status.ok()) {
        state.SkipWithError(resp.status.ToString().c_str());
        break;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(issued));
  const double hits = static_cast<double>(service.cache().hits());
  const double total =
      hits + static_cast<double>(service.cache().misses());
  state.counters["hit_rate"] = total > 0 ? hits / total : 0.0;
  state.counters["workers"] = static_cast<double>(workers);
}
// UseRealTime: the requests execute on the service's workers, so the
// bench thread's CPU time says nothing about throughput.
BENCHMARK(BM_ServeMixedThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
