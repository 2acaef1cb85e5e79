#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fgq/eval/engine.h"
#include "fgq/query/parser.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/explain.h"
#include "fgq/trace/trace.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto q = ParseConjunctiveQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

/// E = {(0,1),(1,2),(2,0),(0,3)}, B = {1, 2}, F = {(1,5),(2,6)}.
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
  Relation f("F", 2);
  f.Add({1, 5});
  f.Add({2, 6});
  db.PutRelation(std::move(e));
  db.PutRelation(std::move(b));
  db.PutRelation(std::move(f));
  return db;
}

// ---- TraceContext primitives ------------------------------------------------

TEST(Trace, SpansAreWellNested) {
  TraceContext trace;
  {
    TraceSpan outer(&trace, "outer");
    {
      TraceSpan inner(&trace, "inner", "custom");
      inner.Arg("k", "v");
    }
    TraceSpan sibling(&trace, "sibling");
  }
  std::vector<TraceContext::Event> evs = trace.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[0].parent, -1);
  EXPECT_EQ(evs[1].name, "inner");
  EXPECT_EQ(evs[1].parent, 0);
  EXPECT_EQ(evs[1].category, "custom");
  ASSERT_EQ(evs[1].args.size(), 1u);
  EXPECT_EQ(evs[1].args[0].first, "k");
  // `sibling` opened after `inner` closed, so it nests under `outer`,
  // not under `inner`.
  EXPECT_EQ(evs[2].parent, 0);
  for (const auto& ev : evs) {
    EXPECT_GE(ev.end_ns, ev.start_ns) << ev.name;
  }
  // Children are contained in their parent's interval.
  EXPECT_GE(evs[1].start_ns, evs[0].start_ns);
  EXPECT_LE(evs[1].end_ns, evs[0].end_ns);
}

TEST(Trace, NullSinkIsANoOp) {
  // The fast path: every instrumentation site tolerates a null context.
  TraceSpan span(nullptr, "ghost");
  span.Arg("k", "v");
  TraceCounter(nullptr, "tuples_scanned", 10);
  // No crash is the assertion.
}

TEST(Trace, CountersAccumulate) {
  TraceContext trace;
  TraceCounter(&trace, "tuples_scanned", 10);
  TraceCounter(&trace, "tuples_scanned", 7);
  TraceCounter(&trace, "tuples_scanned", 0);  // Zero deltas are dropped.
  EXPECT_EQ(trace.counter("tuples_scanned"), 17u);
  EXPECT_EQ(trace.counter("never_touched"), 0u);
}

TEST(Trace, RenderTextFromEventSkipsOlderSpans) {
  TraceContext trace;
  { TraceSpan a(&trace, "first_request"); }
  size_t mark = trace.events().size();
  { TraceSpan b(&trace, "second_request"); }
  std::string tail = trace.RenderText(mark);
  EXPECT_EQ(tail.find("first_request"), std::string::npos) << tail;
  EXPECT_NE(tail.find("second_request"), std::string::npos) << tail;
}

TEST(Trace, ChromeTraceJsonSkipsOpenSpansAndEscapes) {
  TraceContext trace;
  int open = trace.BeginSpan("still_open");
  {
    TraceSpan done(&trace, "done");
    done.Arg("query", "Q(x) :- R(x, \"quoted\\path\").");
  }
  std::string json = trace.ChromeTraceJson();
  EXPECT_EQ(json.find("still_open"), std::string::npos) << json;
  EXPECT_NE(json.find("\"done\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quoted\\\\path\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  trace.EndSpan(open);
}

// ---- Engine instrumentation -------------------------------------------------

TEST(Trace, EngineCountersMatchKnownTupleCounts) {
  Database db = TinyGraph();
  Engine engine;
  TraceContext trace;
  ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  ExecRequest req(q, db);
  req.trace = &trace;
  auto res = engine.Run(req);
  ASSERT_TRUE(res.ok()) << res.status();
  // Scan touches every tuple of every atom exactly once: |E| + |B| = 6.
  EXPECT_EQ(trace.counter("tuples_scanned"), 6u);
  // E join B on y keeps (0,1) and (1,2).
  ASSERT_EQ(res->NumAnswers(), 2u);
  EXPECT_EQ(trace.counter("tuples_emitted"), res->NumAnswers());
  EXPECT_GT(trace.counter("tuples_probed"), 0u);
}

TEST(Trace, EngineSpansNestUnderExecute) {
  Database db = TinyGraph();
  Engine engine;
  TraceContext trace;
  ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  ExecRequest req(q, db);
  req.trace = &trace;
  auto res = engine.Run(req);
  ASSERT_TRUE(res.ok()) << res.status();
  std::vector<TraceContext::Event> evs = trace.events();
  ASSERT_FALSE(evs.empty());
  EXPECT_EQ(evs[0].name, "engine.execute");
  EXPECT_EQ(evs[0].parent, -1);
  std::set<std::string> names;
  for (size_t i = 1; i < evs.size(); ++i) {
    names.insert(evs[i].name);
    // Everything the engine opens is a descendant of engine.execute.
    EXPECT_GE(evs[i].parent, 0) << evs[i].name;
    EXPECT_GE(evs[i].start_ns, evs[0].start_ns) << evs[i].name;
    EXPECT_LE(evs[i].end_ns, evs[0].end_ns) << evs[i].name;
  }
  // The free-connex pipeline phases all appear.
  EXPECT_TRUE(names.count("prepare_atoms")) << trace.RenderText();
  EXPECT_TRUE(names.count("semijoin_sweeps")) << trace.RenderText();
  EXPECT_TRUE(names.count("enumerate")) << trace.RenderText();
}

TEST(Trace, UntracedExecutionStillWorks) {
  Database db = TinyGraph();
  Engine engine;
  ConjunctiveQuery q = Q("Q(x, y) :- E(x, y), B(y).");
  auto res = engine.Run(ExecRequest(q, db));
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->NumAnswers(), 2u);
}

/// Engine::Count and Engine::SumProduct hand their trace to the counting
/// DP: the S-component materialization (with the component's Yannakakis
/// spans inside it) and the DP each get a span.
TEST(Trace, CountingDpReportsItsPhases) {
  Database db = TinyGraph();
  Engine engine;
  // Not free-connex, so SumProduct takes the join-tree DP too.
  ConjunctiveQuery q = Q("Q(x, z) :- E(x, y), F(y, z).");
  for (SemiringId id : {SemiringId::kCounting, SemiringId::kMinPlus}) {
    TraceContext trace;
    ExecRequest req(q, db);
    req.trace = &trace;
    req.semiring = id;
    auto v = engine.SumProduct(req);
    ASSERT_TRUE(v.ok()) << v.status();
    if (id == SemiringId::kCounting) {
      EXPECT_EQ(v->count, BigInt::FromUint64(2));
    }
    std::vector<TraceContext::Event> evs = trace.events();
    std::map<std::string, int> ids;
    for (size_t i = 0; i < evs.size(); ++i) {
      ids.emplace(evs[i].name, static_cast<int>(i));
    }
    ASSERT_TRUE(ids.count("count.s_components")) << trace.RenderText();
    ASSERT_TRUE(ids.count("count.dp")) << trace.RenderText();
    ASSERT_TRUE(ids.count("join_assembly")) << trace.RenderText();
    EXPECT_EQ(evs[static_cast<size_t>(ids["join_assembly"])].parent,
              ids["count.s_components"]);
    EXPECT_GT(trace.counter("tuples_scanned"), 0u);
  }
}

// ---- EXPLAIN ----------------------------------------------------------------

// Mirror of tests/engine_classify_test.cc kGolden: EXPLAIN must agree
// with the engine's own dispatch for every class, because its theorem /
// bound / witness claims are keyed on the classification.
struct ExplainCase {
  const char* text;
  QueryClass expected;
};

const ExplainCase kExplainGolden[] = {
    {"Q() :- E(x, y).", QueryClass::kBooleanAcyclic},
    {"Q() :- E(x, y), F(y, z).", QueryClass::kBooleanAcyclic},
    {"Q(x, y) :- E(x, y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x) :- E(x, y), B(y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x, y, z) :- E(x, y), F(y, z).", QueryClass::kFreeConnexAcyclic},
    {"Q(x, z) :- E(x, y), F(y, z).", QueryClass::kGeneralAcyclic},
    {"Q(x, w) :- E(x, y), F(y, z), G(z, w).", QueryClass::kGeneralAcyclic},
    {"Q(x, y) :- E(x, y), x != y.", QueryClass::kAcyclicDisequalities},
    {"Q(x, y) :- E(x, y), x < y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x <= y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x < y, x != y.",
     QueryClass::kAcyclicOrderComparisons},
    {"Q(x) :- E(x, y), not B(y).", QueryClass::kNegated},
    {"Q() :- E(x, y), not E(y, x).", QueryClass::kNegated},
    {"Q(x) :- E(x, y), F(y, z), G(z, x).", QueryClass::kCyclic},
    {"Q() :- E(x, y), F(y, z), G(z, w), H(w, x).", QueryClass::kCyclic},
};

TEST(Explain, AgreesWithEngineClassifyOnAllSevenClasses) {
  Database db;  // Classification is structural; the db may be empty.
  std::set<QueryClass> seen;
  for (const ExplainCase& c : kExplainGolden) {
    ConjunctiveQuery q = Q(c.text);
    Result<Explanation> ex = Explain(q, db);
    ASSERT_TRUE(ex.ok()) << c.text << ": " << ex.status();
    EXPECT_EQ(ex->classification, Engine::Classify(q)) << c.text;
    EXPECT_EQ(ex->classification, c.expected) << c.text;
    EXPECT_STREQ(ex->info.name, QueryClassName(c.expected)) << c.text;
    EXPECT_FALSE(ex->witness.empty()) << c.text;
    seen.insert(c.expected);
  }
  EXPECT_EQ(seen.size(), 7u) << "golden corpus must cover all classes";
}

TEST(Explain, ClassTableRowsAreComplete) {
  for (int i = 0; i < 7; ++i) {
    const QueryClassInfo& info = GetQueryClassInfo(static_cast<QueryClass>(i));
    EXPECT_STREQ(info.name, QueryClassName(static_cast<QueryClass>(i)));
    EXPECT_NE(std::string(info.theorem).find("Theorem"), std::string::npos)
        << info.name;
    EXPECT_GT(std::string(info.bound).size(), 0u) << info.name;
    EXPECT_NE(std::string(info.file).find(".cc"), std::string::npos)
        << info.name;
    EXPECT_NE(std::string(info.benchmark).find("bench"), std::string::npos)
        << info.name;
  }
}

TEST(Explain, AcyclicWitnessShowsJoinTreeCyclicShowsCore) {
  Database db;
  Result<Explanation> tree = Explain(Q("Q(x) :- E(x, y), B(y)."), db);
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(tree->witness.find("GYO join tree"), std::string::npos)
      << tree->witness;

  Result<Explanation> core =
      Explain(Q("Q(x) :- E(x, y), F(y, z), G(z, x)."), db);
  ASSERT_TRUE(core.ok());
  EXPECT_NE(core->witness.find("stalls on the core"), std::string::npos)
      << core->witness;
  // The triangle core is all three edges.
  EXPECT_NE(core->witness.find("e0"), std::string::npos);
  EXPECT_NE(core->witness.find("e1"), std::string::npos);
  EXPECT_NE(core->witness.find("e2"), std::string::npos);
}

TEST(Explain, ExecuteModeCarriesTraceAndAnswers) {
  Database db = TinyGraph();
  Engine engine;
  ExplainOptions opts;
  opts.execute = true;
  Result<Explanation> ex =
      Explain(Q("Q(x, y) :- E(x, y), B(y)."), db, engine, opts);
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_TRUE(ex->executed);
  EXPECT_EQ(ex->num_answers, 2u);
  ASSERT_NE(ex->trace, nullptr);
  EXPECT_FALSE(ex->trace->events().empty());
  std::string text = ex->Text();
  EXPECT_NE(text.find("execution:"), std::string::npos) << text;
  EXPECT_NE(text.find("engine.execute"), std::string::npos) << text;
  std::string json = ex->Json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
}

// ---- Concurrency ------------------------------------------------------------

// Each request gets its own TraceContext; with multiple workers the
// service must never bleed spans between requests. Run under TSan this
// also vouches for TraceContext's internal locking.
TEST(Trace, ConcurrentServiceRequestsProduceDisjointTraces) {
  SnapshotStore store(TinyGraph());
  ServiceOptions opts;
  opts.num_workers = 4;
  QueryService service(&store, opts);

  constexpr int kRequests = 32;
  std::vector<std::unique_ptr<TraceContext>> traces;
  for (int i = 0; i < kRequests; ++i) {
    traces.push_back(std::make_unique<TraceContext>());
  }
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kRequests, Status::OK());
  clients.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      ServiceRequest req;
      // Alternate classes so both the cached-plan (free-connex) and the
      // engine (general-acyclic) serving paths run; each yields 2 answers.
      req.query = (i % 2 == 0) ? Q("Q(x, y) :- E(x, y), B(y).")
                               : Q("Q(x, z) :- E(x, y), F(y, z).");
      req.verb = ServeVerb::kRows;
      req.trace = traces[static_cast<size_t>(i)].get();
      ServiceResponse resp = service.Submit(std::move(req)).get();
      statuses[static_cast<size_t>(i)] = resp.status;
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok())
        << "request " << i << ": " << statuses[static_cast<size_t>(i)];
    std::vector<TraceContext::Event> evs =
        traces[static_cast<size_t>(i)]->events();
    ASSERT_FALSE(evs.empty()) << "request " << i << " produced no spans";
    // Exactly one root, and it is the serve.request envelope: nothing
    // from any other request landed here.
    int roots = 0;
    for (const auto& ev : evs) {
      if (ev.parent == -1) {
        ++roots;
        EXPECT_EQ(ev.name, "serve.request");
      }
      EXPECT_GE(ev.end_ns, ev.start_ns) << ev.name;
    }
    EXPECT_EQ(roots, 1) << "request " << i;
    EXPECT_EQ(traces[static_cast<size_t>(i)]->counter("tuples_emitted"), 2u)
        << "request " << i;
  }
}

TEST(Trace, CountersAreThreadSafe) {
  TraceContext trace;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kIncrements; ++i) {
        TraceCounter(&trace, "tuples_probed", 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.counter("tuples_probed"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace fgq
