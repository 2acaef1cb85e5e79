// A line-protocol front end over fgq::QueryService.
//
// Where query_shell runs each query inline, fgq_serve pushes every request
// through the full serving stack: classification, admission control, plan
// caching, deadlines, and metrics. Repeating a query hits the plan cache
// (a bounded hit, such as a memoized count, is answered without queueing);
// `\stats` shows the counters; `deadline` makes hopeless cyclic queries
// fail fast instead of hanging the session.
//
//   ./build/examples/fgq_serve [--trace=out.json] < script.txt
//
// Boolean and free-connex queries are served from cached fgq::vm
// programs; see fgq_explain --bytecode for the programs themselves.
//
// With --listen=PORT the binary instead boots the fgq::net socket server
// over the synthetic serving workload (see fgq_loadgen) and runs until
// SIGINT/SIGTERM, then drains gracefully and dumps stats. Clients may
// send `mutate` frames under live traffic: every query answers at one
// pinned epoch (reported in its response), and a mutation of relation R
// retires only the cached plans over R:
//
//   ./build/examples/fgq_serve --listen=7411 --shards=2 --tuples=2000 &
//   ./build/examples/fgq_loadgen --connect=127.0.0.1:7411 --qps=500
//
// Commands:
//   fact <Rel> <v1> <v2> ...   add a fact (a new epoch of <Rel>: retires
//                              only the cached plans over <Rel>)
//   load <path>                load a fact file (published like `fact`)
//   query <rule>               evaluate, e.g. query Q(x) :- R(x, y).
//   count <rule>               count answers
//   explain <rule>             classification verdict + witness + theorem
//                              (no execution)
//   trace <rule>               evaluate through the service with a span
//                              trace attached; prints the per-phase
//                              breakdown and appends the spans to the
//                              --trace file (if given)
//   deadline <ms>              per-request deadline for later queries
//                              (0 = none)
//   \stats                     dump metrics + cache occupancy
//   help / quit
//
// With --trace=PATH, every `trace` request's spans are collected and the
// merged Chrome trace_event JSON is written to PATH on exit — load it at
// chrome://tracing or https://ui.perfetto.dev.

#include <chrono>
#include <csignal>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fgq/db/loader.h"
#include "fgq/db/snapshot.h"
#include "fgq/net/server.h"
#include "fgq/query/parser.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/explain.h"
#include "fgq/trace/trace.h"
#include "fgq/util/simd.h"
#include "fgq/workload/generators.h"

using namespace fgq;

namespace {

void PrintTuple(const Tuple& t, const Dictionary& dict) {
  std::cout << "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) std::cout << ", ";
    if (t[i] >= 0 && static_cast<size_t>(t[i]) < dict.size()) {
      std::cout << dict.Lookup(t[i]);
    } else {
      std::cout << t[i];
    }
  }
  std::cout << ")";
}

void PrintResponse(const ServiceResponse& resp, ServeVerb verb,
                   const Dictionary& dict) {
  std::cout << "  class: " << QueryClassName(resp.classification)
            << (resp.cache_hit ? " [cache hit]" : " [cache miss]") << "\n";
  if (!resp.status.ok()) {
    std::cout << "  error: " << resp.status << "\n";
    return;
  }
  if (verb == ServeVerb::kCount) {
    std::cout << "  |phi(D)| = " << resp.count << "\n";
    return;
  }
  std::cout << "  engine: " << resp.algorithm << ", "
            << resp.answers->NumTuples() << " answers\n";
  const size_t limit = 20;
  for (size_t i = 0; i < std::min(limit, resp.answers->NumTuples()); ++i) {
    std::cout << "    ";
    PrintTuple(resp.answers->Row(i).ToTuple(), dict);
    std::cout << "\n";
  }
  if (resp.answers->NumTuples() > limit) std::cout << "    ...\n";
}

/// Publishes facts parsed into `scratch`: rows for relations the store
/// already holds go in one Apply batch (validated first, so a bad arity
/// publishes nothing), then each new relation is added at its own epoch.
Status Publish(const Database& scratch, SnapshotStore* store) {
  const std::shared_ptr<const Snapshot> cur = store->Current();
  MutationBatch batch;
  std::vector<const Relation*> fresh;
  for (const auto& [name, rel] : scratch.relations()) {
    if (!cur->db().Has(name)) {
      fresh.push_back(rel.get());
      continue;
    }
    RelationMutation m{name, {}, {}};
    for (size_t i = 0; i < rel->NumTuples(); ++i) {
      m.inserts.push_back(rel->Row(i).ToTuple());
    }
    batch.push_back(std::move(m));
  }
  if (!batch.empty()) FGQ_RETURN_NOT_OK(store->Apply(batch).status());
  for (const Relation* rel : fresh) {
    FGQ_RETURN_NOT_OK(store->AddRelation(*rel));
  }
  return Status::OK();
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

/// --listen mode: socket server over the canonical serving workload.
/// `fact_file` (from --db=PATH) substitutes a user database for the
/// synthetic one.
int RunNetServer(uint16_t port, size_t shards, size_t tuples,
                 const std::string& fact_file) {
  Database db;
  if (fact_file.empty()) {
    db = ServeWorkloadDatabase(tuples, /*seed=*/1);
  } else {
    Dictionary dict;
    Status st = LoadFactsFromFile(fact_file, &db, &dict);
    if (!st.ok()) {
      std::cerr << "fgq_serve: " << st << "\n";
      return 2;
    }
  }
  net::NetServerOptions opts;
  opts.port = port;
  opts.num_shards = shards;
  SnapshotStore store(std::move(db));
  Result<std::unique_ptr<net::NetServer>> server =
      net::NetServer::Start(&store, opts);
  if (!server.ok()) {
    std::cerr << "fgq_serve: " << server.status() << "\n";
    return 2;
  }
  std::cout << "fgq_serve: listening on " << opts.host << ":"
            << (*server)->port() << " with " << (*server)->num_shards()
            << " shard(s), simd path " << ActiveSimdPathName() << "\n"
            << std::flush;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  std::cout << (*server)->StatsDump();
  return 0;
}

std::string Indent(const std::string& block) {
  std::istringstream in(block);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) out << "  " << line << "\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string fact_file;
  bool listen = false;
  uint16_t listen_port = 0;
  size_t shards = 1;
  size_t tuples = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen = true;
      listen_port = static_cast<uint16_t>(std::stoi(arg.substr(9)));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<size_t>(std::stoull(arg.substr(9)));
    } else if (arg.rfind("--tuples=", 0) == 0) {
      tuples = static_cast<size_t>(std::stoull(arg.substr(9)));
    } else if (arg.rfind("--db=", 0) == 0) {
      fact_file = arg.substr(5);
    } else {
      std::cerr << "unknown flag '" << arg
                << "' (try --trace=out.json or --listen=PORT "
                   "[--shards=N] [--tuples=N] [--db=facts.txt])\n";
      return 2;
    }
  }
  if (listen) {
    return RunNetServer(listen_port, shards, tuples, fact_file);
  }

  SnapshotStore store{Database()};
  Dictionary dict;
  ServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(&store, opts);
  // One long-lived sink for all `trace` verbs of the session; flushed to
  // --trace=PATH on exit. (Per-request isolation is about correctness of
  // nesting — each request still runs under its own serve.request span.)
  TraceContext session_trace;
  bool traced_any = false;
  std::chrono::milliseconds deadline{0};
  std::string line;
  std::cout << "fgq serve — 'help' for commands\n";
  while (std::getline(std::cin, line)) {
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::cout << "fact <Rel> <v>... | load <path> | query <rule> | "
                   "count <rule> | explain <rule> | trace <rule> | "
                   "deadline <ms> | \\stats | quit\n";
      continue;
    }
    if (cmd == "\\stats") {
      std::cout << service.StatsDump();
      continue;
    }
    std::string rest;
    std::getline(ls, rest);
    if (cmd == "fact" || cmd == "load") {
      Database scratch;
      Status st;
      if (cmd == "fact") {
        st = LoadFactsFromString(rest, &scratch, &dict, "<stdin>");
      } else {
        std::istringstream rs(rest);
        std::string path;
        rs >> path;
        st = LoadFactsFromFile(path, &scratch, &dict);
      }
      if (st.ok()) st = Publish(scratch, &store);
      if (!st.ok()) std::cout << "  " << st << "\n";
      continue;
    }
    if (cmd == "deadline") {
      deadline = std::chrono::milliseconds(std::stoll(rest));
      std::cout << "  deadline: " << deadline.count() << " ms\n";
      continue;
    }
    if (cmd == "explain") {
      auto q = ParseConjunctiveQuery(rest);
      if (!q.ok()) {
        std::cout << "  " << q.status() << "\n";
        continue;
      }
      Result<Explanation> ex = Explain(*q, store.Current()->db());
      if (!ex.ok()) {
        std::cout << "  " << ex.status() << "\n";
        continue;
      }
      std::cout << Indent(ex->Text());
      continue;
    }
    if (cmd == "query" || cmd == "count" || cmd == "trace") {
      auto q = ParseConjunctiveQuery(rest);
      if (!q.ok()) {
        std::cout << "  " << q.status() << "\n";
        continue;
      }
      const bool traced = cmd == "trace";
      const size_t trace_mark = session_trace.events().size();
      ServiceRequest req;
      req.query = std::move(q).value();
      req.verb = cmd == "count" ? ServeVerb::kCount : ServeVerb::kRows;
      req.timeout = deadline;
      if (traced) {
        req.trace = &session_trace;
        traced_any = true;
      }
      ServiceResponse resp = service.Submit(std::move(req)).get();
      PrintResponse(resp, cmd == "count" ? ServeVerb::kCount : ServeVerb::kRows,
                    dict);
      if (traced) std::cout << Indent(session_trace.RenderText(trace_mark));
      continue;
    }
    std::cout << "  unknown command '" << cmd << "' — try 'help'\n";
  }
  if (!trace_path.empty() && traced_any) {
    Status st = session_trace.WriteChromeTrace(trace_path);
    if (st.ok()) {
      std::cout << "trace written to " << trace_path << "\n";
    } else {
      std::cerr << st << "\n";
    }
  }
  return 0;
}
