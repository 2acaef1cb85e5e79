#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fgq/check/check.h"
#include "fgq/check/net_fuzz.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/net/client.h"
#include "fgq/net/protocol.h"
#include "fgq/net/server.h"
#include "fgq/query/parser.h"
#include "fgq/workload/generators.h"

// Loopback integration tests for fgq::net: a real NetServer on 127.0.0.1,
// a real Client, and every wire answer compared against a direct Engine
// run on the same database. The protocol codec itself is unit-fuzzed in
// check_test / RunFrameFuzz; this file is about the server semantics —
// pipelining, per-request vs per-connection error handling, shard
// routing, graceful shutdown.

namespace fgq {
namespace {

using net::Client;
using net::NetServer;
using net::NetServerOptions;
using net::Request;
using net::Response;
using net::Verb;

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

std::set<Tuple> WireRows(const Response& resp) {
  std::set<Tuple> out;
  for (size_t r = 0; r < resp.num_rows(); ++r) {
    Tuple t(resp.arity);
    for (size_t c = 0; c < resp.arity; ++c) t[c] = resp.values[r * resp.arity + c];
    out.insert(std::move(t));
  }
  return out;
}

std::unique_ptr<NetServer> StartOrSkip(SnapshotStore* store,
                                       NetServerOptions opts) {
  auto server = NetServer::Start(store, std::move(opts));
  if (!server.ok() &&
      server.status().code() == StatusCode::kUnsupported) {
    return nullptr;  // Non-Linux build of the stub; caller GTEST_SKIPs.
  }
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(*server) : nullptr;
}

#define START_OR_SKIP(server, store, opts)                       \
  std::unique_ptr<NetServer> server = StartOrSkip(store, opts); \
  if (!server) GTEST_SKIP() << "fgq::net unsupported platform"

std::unique_ptr<Client> Connect(const NetServer& server) {
  auto c = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(*c);
}

Request Make(uint64_t id, Verb verb, const std::string& query,
             uint32_t limit = 0) {
  Request r;
  r.id = id;
  r.verb = verb;
  r.query = query;
  r.limit = limit;
  return r;
}

// ---- Pipelined mixed verbs vs direct Engine --------------------------------

TEST(NetTest, PipelinedMixedVerbsMatchDirectEngine) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  const std::string rule = "Q(x, y) :- E(x, y), B(y).";
  const std::string boolean_rule = "Q() :- E(x, y), B(x).";
  // Send everything before reading anything: rows, count, limited
  // enumeration, explain, a Boolean (nullary) query, and a ping. The
  // server must answer strictly in this order.
  ASSERT_TRUE(client->Send(Make(1, Verb::kRows, rule)).ok());
  ASSERT_TRUE(client->Send(Make(2, Verb::kCount, rule)).ok());
  ASSERT_TRUE(client->Send(Make(3, Verb::kEnumerateLimit, rule, 1)).ok());
  ASSERT_TRUE(client->Send(Make(4, Verb::kExplain, rule)).ok());
  ASSERT_TRUE(client->Send(Make(5, Verb::kRows, boolean_rule)).ok());
  ASSERT_TRUE(client->Send(Make(6, Verb::kPing, "")).ok());

  Engine engine;
  const ConjunctiveQuery q = Q(rule);
  const std::shared_ptr<const Snapshot> snap = store.Current();
  Result<ExecResult> direct = engine.Run(ExecRequest(q, snap->db()));
  ASSERT_TRUE(direct.ok()) << direct.status();

  Result<Response> rows = client->Receive(Verb::kRows);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->id, 1u);
  ASSERT_TRUE(rows->ok()) << rows->text;
  EXPECT_EQ(rows->arity, 2u);
  EXPECT_EQ(WireRows(*rows), Rows(direct->answers));

  Result<Response> count = client->Receive(Verb::kCount);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->id, 2u);
  ASSERT_TRUE(count->ok()) << count->text;
  EXPECT_EQ(count->count, std::to_string(direct->NumAnswers()));

  Result<Response> limited = client->Receive(Verb::kEnumerateLimit);
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_EQ(limited->id, 3u);
  ASSERT_TRUE(limited->ok()) << limited->text;
  EXPECT_EQ(limited->num_rows(), 1u);
  const std::set<Tuple> full = Rows(direct->answers);
  for (const Tuple& t : WireRows(*limited)) {
    EXPECT_TRUE(full.count(t)) << "limited row not in full answer set";
  }

  Result<Response> explain = client->Receive(Verb::kExplain);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->id, 4u);
  ASSERT_TRUE(explain->ok()) << explain->text;
  EXPECT_NE(explain->explain.find("free-connex"), std::string::npos)
      << explain->explain;

  Result<Response> boolean = client->Receive(Verb::kRows);
  ASSERT_TRUE(boolean.ok()) << boolean.status();
  EXPECT_EQ(boolean->id, 5u);
  ASSERT_TRUE(boolean->ok()) << boolean->text;
  EXPECT_EQ(boolean->arity, 0u);
  EXPECT_EQ(boolean->num_rows(), 1u);  // E(x,y) with B(x) holds (x=1,y=2).

  Result<Response> pong = client->Receive(Verb::kPing);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->id, 6u);
  EXPECT_TRUE(pong->ok());

  server->Stop();
  const net::NetServerStats stats = server->stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.responses, 6u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST(NetTest, CacheHitFlagSetOnRepeat) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);
  const std::string rule = "Q(x) :- E(x, y).";
  Result<Response> cold = client->Call(Make(1, Verb::kRows, rule));
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold->ok()) << cold->text;
  EXPECT_FALSE(cold->cache_hit());
  Result<Response> warm = client->Call(Make(2, Verb::kRows, rule));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->ok()) << warm->text;
  EXPECT_TRUE(warm->cache_hit());
  EXPECT_EQ(WireRows(*cold), WireRows(*warm));
}

// A connection pipelining [miss, hit, hit] gets its replies in request
// order, the hits (answered inline on the shard thread) waiting behind the
// miss; meanwhile another connection's hits come back while the miss still
// holds the shard's only worker.
TEST(NetTest, BoundedHitsAnswerWhileAMissRuns) {
  Rng rng(3);
  Database db = PathDatabase(3, 1000, 500, &rng);
  const Database tiny = TinyGraph();
  ASSERT_TRUE(db.AddRelation(*tiny.Find("E").value()).ok());
  SnapshotStore store(std::move(db));
  NetServerOptions opts;
  opts.num_shards = 1;
  opts.service.num_workers = 1;
  START_OR_SKIP(server, &store, opts);
  std::unique_ptr<Client> a = Connect(*server);
  std::unique_ptr<Client> b = Connect(*server);
  const std::string hit = "Q(x, y) :- E(x, y).";
  Result<Response> warm = b->Call(Make(1, Verb::kEnumerateLimit, hit, 2));
  ASSERT_TRUE(warm.ok() && warm->ok());
  EXPECT_FALSE(warm->cache_hit());

  // A cyclic miss: the backtracking oracle keeps the worker busy.
  const std::string slow = "T(x, y, z) :- E1(x, y), E2(y, z), E3(z, x).";
  ASSERT_TRUE(a->Send(Make(10, Verb::kRows, slow)).ok());
  ASSERT_TRUE(a->Send(Make(11, Verb::kEnumerateLimit, hit, 2)).ok());
  ASSERT_TRUE(a->Send(Make(12, Verb::kEnumerateLimit, hit, 3)).ok());
  while (server->stats().requests < 4) std::this_thread::yield();

  for (uint64_t id = 2; id < 6; ++id) {
    Result<Response> r = b->Call(Make(id, Verb::kEnumerateLimit, hit, 1));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->ok()) << r->text;
    EXPECT_TRUE(r->cache_hit());
    EXPECT_EQ(r->num_rows(), 1u);
  }
  pollfd pfd{a->fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0)
      << "the pipelined hits overtook the miss ahead of them";

  Result<Response> miss = a->Receive(Verb::kRows);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(miss->id, 10u);
  ASSERT_TRUE(miss->ok()) << miss->text;
  EXPECT_FALSE(miss->cache_hit());
  for (uint64_t id : {11u, 12u}) {
    Result<Response> r = a->Receive(Verb::kEnumerateLimit);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->id, id);
    ASSERT_TRUE(r->ok()) << r->text;
    EXPECT_TRUE(r->cache_hit());
    EXPECT_EQ(r->num_rows(), id == 11u ? 2u : 3u);
  }
  server->Stop();
  EXPECT_EQ(server->stats().responses, server->stats().requests);
}

// ---- Error handling ---------------------------------------------------------

TEST(NetTest, ParseErrorKeepsConnectionUsable) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  Result<Response> bad =
      client->Call(Make(7, Verb::kRows, "this is not datalog"));
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->id, 7u);
  EXPECT_FALSE(bad->ok());
  EXPECT_EQ(static_cast<StatusCode>(bad->status), StatusCode::kParseError)
      << bad->text;

  // The connection survives an application error: the next request works.
  Result<Response> good =
      client->Call(Make(8, Verb::kCount, "Q(x) :- E(x, y)."));
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->id, 8u);
  ASSERT_TRUE(good->ok()) << good->text;
  EXPECT_EQ(good->count, "3");  // x in {0, 1, 2}.

  server->Stop();
  const net::NetServerStats stats = server->stats();
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetTest, FramingErrorClosesConnection) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  // Garbage with a wrong magic: a framing violation, not an application
  // error. The server answers with one error frame (id 0 — the stream is
  // desynchronized, no id can be trusted) and closes.
  ASSERT_TRUE(client->SendRaw("XXXXGARBAGEGARBAGE").ok());
  Result<Response> err = client->Receive(Verb::kPing);
  ASSERT_TRUE(err.ok()) << err.status();
  EXPECT_EQ(err->id, 0u);
  EXPECT_FALSE(err->ok());
  // Then EOF: the next receive fails because the server closed.
  Result<Response> eof = client->Receive(Verb::kPing);
  EXPECT_FALSE(eof.ok());

  server->Stop();
  EXPECT_GE(server->stats().protocol_errors, 1u);

  // A fresh connection is unaffected.
  // (Server restarted per test; this asserts the *server* survived.)
}

TEST(NetTest, FreshConnectionWorksAfterFramingError) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  {
    std::unique_ptr<Client> broken = Connect(*server);
    ASSERT_TRUE(broken->SendRaw("not a frame at all.....").ok());
    Result<Response> err = broken->Receive(Verb::kPing);
    ASSERT_TRUE(err.ok()) << err.status();
    EXPECT_FALSE(err->ok());
  }
  std::unique_ptr<Client> fresh = Connect(*server);
  Result<Response> pong = fresh->Call(Make(1, Verb::kPing, ""));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok());
}

// ---- Routing ----------------------------------------------------------------

TEST(NetTest, RouterModeServesManyConnections) {
  SnapshotStore store(TinyGraph());
  NetServerOptions opts;
  opts.num_shards = 2;
  opts.use_reuseport = false;  // Round-robin fd handoff through shard 0.
  START_OR_SKIP(server, &store, opts);
  EXPECT_EQ(server->num_shards(), 2u);

  // More connections than shards so every shard serves at least one.
  constexpr int kConns = 6;
  for (int i = 0; i < kConns; ++i) {
    std::unique_ptr<Client> client = Connect(*server);
    Result<Response> resp =
        client->Call(Make(static_cast<uint64_t>(i + 1), Verb::kCount,
                          "Q(x, y) :- E(x, y)."));
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->ok()) << resp->text;
    EXPECT_EQ(resp->count, "4");
  }
  server->Stop();
  const net::NetServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetTest, ReuseportModeServesManyConnections) {
  SnapshotStore store(TinyGraph());
  NetServerOptions opts;
  opts.num_shards = 2;
  opts.use_reuseport = true;
  START_OR_SKIP(server, &store, opts);
  for (int i = 0; i < 6; ++i) {
    std::unique_ptr<Client> client = Connect(*server);
    Result<Response> resp = client->Call(
        Make(1, Verb::kCount, "Q(x) :- B(x)."));
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->ok()) << resp->text;
    EXPECT_EQ(resp->count, "2");
  }
}

// ---- Shutdown ---------------------------------------------------------------

TEST(NetTest, GracefulStopFlushesInFlightResponses) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  // Pipeline a batch, then stop the server before reading: the drain
  // phase must flush every pending response before the close.
  constexpr int kBatch = 16;
  for (int i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(
        client->Send(Make(static_cast<uint64_t>(i + 1), Verb::kCount,
                          "Q(x, y) :- E(x, y), B(y)."))
            .ok());
  }
  std::thread stopper([&] { server->Stop(); });
  int received = 0;
  for (int i = 0; i < kBatch; ++i) {
    Result<Response> resp = client->Receive(Verb::kCount);
    if (!resp.ok()) break;  // Drain deadline may cut the tail under load.
    EXPECT_EQ(resp->id, static_cast<uint64_t>(i + 1));
    if (resp->ok()) {
      EXPECT_EQ(resp->count, "2");
    }
    ++received;
  }
  stopper.join();
  // The batch is tiny and the drain window is 2s: everything flushes.
  EXPECT_EQ(received, kBatch);
}

TEST(NetTest, ClientHalfCloseDrainsThenEof) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);
  ASSERT_TRUE(client->Send(Make(1, Verb::kCount, "Q(x) :- E(x, y).")).ok());
  client->ShutdownWrite();
  Result<Response> resp = client->Receive(Verb::kCount);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->count, "3");
  Result<Response> eof = client->Receive(Verb::kCount);
  EXPECT_FALSE(eof.ok());
}

// ---- Mutations over the wire ------------------------------------------------

net::MutationOp Insert(const std::string& relation, uint32_t arity,
                       std::vector<Value> values) {
  net::MutationOp op;
  op.relation = relation;
  op.arity = arity;
  op.nrows = arity == 0 ? 1 : values.size() / arity;
  op.values = std::move(values);
  return op;
}

TEST(NetTest, MutateThenQuerySeesTheNewEpoch) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  const std::string rule = "Q(x) :- E(x, y), B(y).";
  Result<Response> before = client->Call(Make(1, Verb::kRows, rule));
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(before->ok()) << before->text;
  EXPECT_EQ(before->epoch, 1u);
  EXPECT_EQ(WireRows(*before), (std::set<Tuple>{{0}, {1}}));

  // B gains 3: E(0,3) already witnesses 0, but E(2,0)'s head 2 needs
  // B(0) — insert both and check the answer set grows.
  Result<uint64_t> epoch = client->Mutate({Insert("B", 1, {0, 3})}, 2);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 2u);

  Result<Response> after = client->Call(Make(3, Verb::kRows, rule));
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(after->ok()) << after->text;
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(WireRows(*after), (std::set<Tuple>{{0}, {1}, {2}}));
}

TEST(NetTest, MutateDeleteRemovesEveryMatchingRow) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);

  net::MutationOp del;
  del.is_delete = true;
  del.relation = "E";
  del.arity = 2;
  del.nrows = 1;
  del.values = {0, 1};
  Result<uint64_t> epoch = client->Mutate({del}, 1);
  ASSERT_TRUE(epoch.ok()) << epoch.status();

  Result<Response> rows = client->Call(Make(2, Verb::kRows,
                                            "Q(x, y) :- E(x, y)."));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(WireRows(*rows),
            (std::set<Tuple>{{1, 2}, {2, 0}, {0, 3}}));
}

TEST(NetTest, MutateRejectsUnknownRelationWithoutPublishing) {
  SnapshotStore store(TinyGraph());
  START_OR_SKIP(server, &store, NetServerOptions{});
  std::unique_ptr<Client> client = Connect(*server);
  Result<uint64_t> epoch = client->Mutate({Insert("Nope", 1, {1})}, 1);
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(store.Current()->epoch(), 1u);
  // A valid follow-up on the same connection still lands.
  Result<uint64_t> ok = client->Mutate({Insert("B", 1, {9})}, 2);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, 2u);
}

// ---- Codec fuzz smoke -------------------------------------------------------

TEST(NetTest, FrameFuzzSmoke) {
  check::FrameFuzzOptions opt;
  opt.seed = 7;
  opt.iterations = 300;
  const check::FrameFuzzReport report = check::RunFrameFuzz(opt);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.roundtrips, 0u);
  EXPECT_GT(report.clean_errors, 0u);
}

// The kMutate section decoder parses outside input; the frame fuzzer
// draws it too. Pinned here: a valid section round-trips, and row counts
// the payload cannot hold are refused before anything is allocated.
TEST(NetTest, MutationSectionDecodeRefusesOverruns) {
  auto decode = [](const Request& req, Request* back) {
    std::string frame;
    net::EncodeRequest(req, &frame);
    return net::DecodeRequest(
        reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
        frame.size() - net::kFrameHeaderBytes, back);
  };
  Request req = Make(9, Verb::kMutate, "");
  req.mutations = {{false, "E", 2, 2, {1, 2, 3, 4}},
                   {true, "B", 1, 1, {7}},
                   {false, "T", 0, 1, {}},
                   {true, "T", 0, 0, {}}};
  Request back;
  ASSERT_TRUE(decode(req, &back).ok());
  ASSERT_EQ(back.mutations.size(), req.mutations.size());
  for (size_t i = 0; i < req.mutations.size(); ++i) {
    EXPECT_EQ(back.mutations[i].is_delete, req.mutations[i].is_delete);
    EXPECT_EQ(back.mutations[i].relation, req.mutations[i].relation);
    EXPECT_EQ(back.mutations[i].arity, req.mutations[i].arity);
    EXPECT_EQ(back.mutations[i].nrows, req.mutations[i].nrows);
    EXPECT_EQ(back.mutations[i].values, req.mutations[i].values);
  }
  for (uint64_t nrows : {3ull, 1ull << 40, ~0ull}) {
    Request bad = req;
    bad.mutations.back() = {false, "E", 2, nrows, {1, 2, 3, 4}};
    EXPECT_FALSE(decode(bad, &back).ok()) << nrows;
  }
  Request nullary = req;
  nullary.mutations.back() = {true, "T", 0, 2, {}};
  EXPECT_FALSE(decode(nullary, &back).ok());
}

// ---- Differential equivalence on the committed corpus -----------------------

#ifdef FGQ_REGRESS_DIR
TEST(NetTest, RegressionCorpusMatchesOverTheWire) {
  // Every committed .fgqr case re-diffed with the loopback net paths on:
  // wire answers must be bit-identical to the reference for rows, count
  // and limited enumeration. This is the acceptance bar for the socket
  // front end — the network hop may not change a single answer.
  FuzzOptions opt;
  opt.include_net = true;
  std::string report;
  Status st = ReplayRegressionDir(FGQ_REGRESS_DIR, opt, &report);
  EXPECT_TRUE(st.ok()) << report;
}
#endif

}  // namespace
}  // namespace fgq
