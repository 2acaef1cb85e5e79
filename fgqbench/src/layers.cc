#include "layers.h"

#include <future>
#include <thread>

#include "fgq/count/acq_count.h"
#include "fgq/db/index.h"
#include "fgq/query/parser.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

namespace fgqbench {

namespace {

constexpr int kPings = 2000;
constexpr int kPinSpans = 50;
/// Parses and classifications per mix text.
constexpr int kFrontEndReps = 200;

}  // namespace

void PingLayer(Fixture& f, fgq::TraceContext* trace, Ledger* ledger) {
  fgq::net::Client& c = *f.conns[kNumConns];
  fgq::net::Request req;
  req.verb = fgq::net::Verb::kPing;
  for (int i = 0; i < kPings; ++i) {
    req.id = static_cast<uint64_t>(i) + 1;
    ledger->Attempt();
    fgq::TraceSpan span(trace, "net.ping", "net");
    fgq::Result<fgq::net::Response> r = c.Call(req);
    if (!r.ok() || !r->ok()) ledger->Fail("ping " + std::to_string(i));
  }
}

Replay RunReplay(const Inputs& in, size_t end, fgq::TraceContext* trace) {
  Replay out(in.stream.size());
  out.store = std::make_unique<fgq::SnapshotStore>(in.db);
  (void)out.store->MaintainIndex(kWriteRelation, {0});
  const fgq::SnapshotStoreStats before = out.store->stats();
  std::vector<std::future<fgq::ServiceResponse>> futs(end);
  std::vector<int64_t> done_ns(end, -1);
  {
    // The server's per-shard service: one worker, default queue and cache.
    fgq::ServiceOptions so;
    so.num_workers = 1;
    fgq::QueryService svc(out.store.get(), so);
    // Parsed once here: the replayed requests carry only what the
    // server's shard hands its service, so their latency can be compared
    // with the wire's.
    std::vector<fgq::ConjunctiveQuery> parsed;
    for (const QueryInfo& qi : in.queries) {
      parsed.push_back(fgq::ParseConjunctiveQuery(qi.text).value());
    }
    // Warm the plan cache as the fixture warms the server's, so the
    // replayed stream starts in the same state as the wire stream did.
    for (size_t q = 0; q < in.queries.size(); ++q) {
      fgq::ServiceRequest req;
      req.query = parsed[q];
      req.verb = in.queries[q].count ? fgq::ServeVerb::kCount : fgq::ServeVerb::kRows;
      out.warmup.push_back(svc.Submit(std::move(req)).get());
    }
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < end; ++i) {
      const StreamOp& op = in.stream[i];
      std::this_thread::sleep_until(start + std::chrono::nanoseconds(op.at_ns));
      if (op.is_write()) {
        fgq::Result<uint64_t> epoch = [&] {
          fgq::TraceSpan span(trace, "db.apply", "db");
          return out.store->Apply(in.batches[op.batch]);
        }();
        out.resp[i].status = epoch.status();
        if (epoch.ok()) out.resp[i].epoch = *epoch;
        out.got[i] = 1;
        out.lat_ns[i] = NanosSince(start) - op.at_ns;
        continue;
      }
      const QueryInfo& qi = in.queries[op.query];
      fgq::ServiceRequest req;
      req.query = parsed[op.query];
      req.verb = qi.count ? fgq::ServeVerb::kCount : fgq::ServeVerb::kRows;
      if (!qi.count) req.limit = kReadLimit;
      int64_t* slot = &done_ns[i];
      req.on_done = [slot, start](const fgq::ServiceResponse&) {
        *slot = NanosSince(start);
      };
      futs[i] = svc.Submit(std::move(req), fgq::SubmitPolicy::Reject());
    }
    for (size_t i = 0; i < end; ++i) {
      if (!futs[i].valid()) continue;
      out.resp[i] = futs[i].get();
      out.got[i] = 1;
    }
    // on_done runs after the future is ready; joining the workers makes
    // every completion stamp visible.
    svc.Stop();
  }
  for (size_t i = 0; i < end; ++i) {
    if (futs[i].valid() && done_ns[i] >= 0) {
      out.lat_ns[i] = done_ns[i] - in.stream[i].at_ns;
    }
  }
  const fgq::SnapshotStoreStats after = out.store->stats();
  out.store_stats.indexes_delta_built =
      after.indexes_delta_built - before.indexes_delta_built;
  out.store_stats.indexes_rebuilt = after.indexes_rebuilt - before.indexes_rebuilt;
  return out;
}

void ProbeLayers(const Inputs& in, const fgq::Engine& engine,
                 const AnalyticQueries& q, const AnalyticTruth& truth,
                 const std::shared_ptr<const fgq::Snapshot>& snap,
                 const fgq::SnapshotStore& store, fgq::TraceContext* trace,
                 Ledger* ledger) {
  const fgq::Database& db = snap->db();
  auto check = [&](bool ok, const std::string& what) {
    ledger->Attempt();
    if (!ok) ledger->Wrong("layer probe: " + what);
  };
  for (const QueryInfo& qi : in.queries) {
    for (int r = 0; r < kFrontEndReps; ++r) {
      fgq::Result<fgq::ConjunctiveQuery> parsed = [&] {
        fgq::TraceSpan span(trace, "query.parse", "query");
        return fgq::ParseConjunctiveQuery(qi.text);
      }();
      if (r == 0) check(parsed.ok(), "parse '" + qi.text + "'");
      if (!parsed.ok()) break;
      fgq::TraceSpan span(trace, "eval.classify", "eval");
      (void)fgq::Engine::Classify(*parsed);
    }
  }
  fgq::Result<fgq::vm::Compilation> comp = [&] {
    fgq::TraceSpan span(trace, "vm.compile_query", "vm");
    return fgq::vm::CompileQuery(q.figure1, db, engine.context());
  }();
  check(comp.ok() && comp->ok(), "figure1 compiles");
  if (comp.ok() && comp->ok()) {
    const fgq::CancelToken cancel;
    fgq::Result<fgq::SemiringValue> n = [&] {
      fgq::TraceSpan span(trace, "vm.run_count", "vm");
      return fgq::vm::RunSemiring(*comp->program, fgq::SemiringId::kCounting,
                                  cancel);
    }();
    check(n.ok() && n->count == fgq::BigInt::FromUint64(truth.figure1->size()),
          "vm count of figure1");
    fgq::Result<fgq::SemiringValue> m = [&] {
      fgq::TraceSpan span(trace, "vm.run_minplus", "vm");
      return fgq::vm::RunSemiring(*comp->program, fgq::SemiringId::kMinPlus,
                                  cancel);
    }();
    check(m.ok() && *m == truth.figure1_minplus, "vm min-plus of figure1");
  }
  fgq::Result<fgq::SemiringValue> dp = [&] {
    fgq::TraceSpan span(trace, "count.dp", "count");
    return fgq::SemiringSumAcq(q.path2, db, fgq::SemiringId::kCounting);
  }();
  check(dp.ok() && dp->count == fgq::BigInt::FromUint64(truth.path2_answers),
        "counting DP of path-2");

  const fgq::Relation* largest = nullptr;
  for (const auto& [name, rel] : db.relations()) {
    if (largest == nullptr || rel->NumTuples() > largest->NumTuples()) {
      largest = rel.get();
    }
  }
  {
    fgq::TraceSpan span(trace, "db.index_build", "db");
    fgq::HashIndex index(*largest, {0});
    check(index.Lookup({largest->At(0, 0)}).size() > 0, "index finds row 0");
  }
  uint64_t epochs = 0;
  for (int s = 0; s < kPinSpans; ++s) {
    fgq::TraceSpan span(trace, "db.pin", "db");
    for (int i = 0; i < kPinsPerSpan; ++i) epochs += store.Current()->epoch();
  }
  check(epochs >= static_cast<uint64_t>(kPinSpans) * kPinsPerSpan, "pins");
}

std::map<std::string, std::vector<double>> SpanDurationsUs(
    const fgq::TraceContext& trace) {
  std::map<std::string, std::vector<double>> out;
  for (const fgq::TraceContext::Event& e : trace.events()) {
    if (e.end_ns >= 0) out[e.name].push_back(static_cast<double>(e.DurationNs()) / 1e3);
  }
  return out;
}

}  // namespace fgqbench
