// Open-loop load generator for the fgq wire protocol.
//
//   fgq_loadgen --self-serve                         boot an in-process
//                                                    NetServer and sweep
//                                                    --qps x --shards
//   fgq_loadgen --connect=HOST:PORT --qps=500        drive a live server
//   fgq_loadgen --self-serve --json=BENCH_PR6_serve.json
//                                                    record the sweep in the
//                                                    BENCH_PR*.json schema
//
// Open-loop means requests are sent on a fixed schedule derived from the
// target QPS, and every latency is measured from the *intended* send time,
// not the actual one. A closed-loop generator (send, wait, send) lets a
// slow server throttle its own load and silently erases queueing delay —
// the coordinated-omission trap. Here a stalled server keeps accumulating
// scheduled requests, so p99/p999 honestly include the time requests spent
// waiting to be serviced.
//
// The query mix is fgq::ServeWorkloadMix() over ServeWorkloadDatabase():
// weighted free-connex lookups, the paper's Figure-1 query, a 2-path, and
// count traffic. Row-returning queries are sent as kEnumerateLimit with a
// small limit — the paper's constant-delay contract makes the first k
// answers O(k) after preprocessing, so per-request cost stays bounded and
// the measured latency is dominated by serving, not by streaming a full
// result set.
//
// Exit status is nonzero on any transport failure, protocol error, or
// unexpected remote error. Queue-full rejections (ResourceExhausted) are
// counted but are not failures: an overloaded open-loop run is *supposed*
// to shed load.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json_io.h"
#include "fgq/net/client.h"
#include "fgq/net/server.h"
#include "fgq/util/random.h"
#include "fgq/workload/generators.h"

using namespace fgq;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  bool self_serve = false;
  std::string connect_host;
  uint16_t connect_port = 0;
  std::vector<double> qps = {200, 1000, 4000};
  std::vector<size_t> shards = {1, 2};
  size_t conns = 4;
  int duration_ms = 2000;
  int warmup_ms = 300;
  size_t tuples = 2000;
  uint64_t seed = 1;
  uint32_t limit = 32;
  std::string json_path;
};

/// One scheduled request: the wire request plus its intended send offset
/// from the connection's start instant. Precomputed before the clock
/// starts so the send loop does nothing but sleep_until + write.
struct Scheduled {
  net::Request req;
  int64_t intended_ns = 0;
  bool measured = true;  ///< False during warmup.
};

/// What one connection observed. Latencies are receive_time -
/// intended_send_time, post-warmup only.
struct ConnOutcome {
  std::vector<int64_t> latencies_ns;
  uint64_t received = 0;
  uint64_t rejected = 0;   ///< Remote ResourceExhausted (load shedding).
  uint64_t errors = 0;     ///< Any other remote error (unexpected).
  Status transport = Status::OK();
};

std::vector<Scheduled> BuildSchedule(const std::vector<ServeWorkloadQuery>& mix,
                                     double qps, int duration_ms,
                                     int warmup_ms, uint32_t limit,
                                     uint64_t seed) {
  double total_weight = 0;
  for (const auto& q : mix) total_weight += q.weight;
  const double interval_ns = 1e9 / qps;
  const auto n = static_cast<size_t>(qps * duration_ms / 1000.0);
  const int64_t warmup_ns = int64_t{warmup_ms} * 1000000;
  Rng rng(seed);
  std::vector<Scheduled> plan;
  plan.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double pick = rng.NextDouble() * total_weight;
    const ServeWorkloadQuery* q = &mix.back();
    for (const auto& cand : mix) {
      pick -= cand.weight;
      if (pick <= 0) {
        q = &cand;
        break;
      }
    }
    Scheduled s;
    s.req.id = i + 1;
    s.req.query = q->text;
    if (q->count) {
      s.req.verb = net::Verb::kCount;
    } else {
      s.req.verb = net::Verb::kEnumerateLimit;
      s.req.limit = limit;
    }
    s.intended_ns = static_cast<int64_t>(i * interval_ns);
    s.measured = s.intended_ns >= warmup_ns;
    plan.push_back(std::move(s));
  }
  return plan;
}

/// Runs one connection: a sender thread paces the schedule while this
/// thread blocks on responses (strict request order, so the i-th receive
/// answers the i-th send).
ConnOutcome RunConnection(const std::string& host, uint16_t port,
                          const std::vector<Scheduled>& plan) {
  ConnOutcome out;
  Result<std::unique_ptr<net::Client>> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    out.transport = client.status();
    return out;
  }
  net::Client& c = **client;
  const Clock::time_point start = Clock::now();
  Status send_status = Status::OK();
  std::thread sender([&] {
    for (const Scheduled& s : plan) {
      std::this_thread::sleep_until(
          start + std::chrono::nanoseconds(s.intended_ns));
      send_status = c.Send(s.req);
      if (!send_status.ok()) return;
    }
  });
  for (const Scheduled& s : plan) {
    Result<net::Response> resp = c.Receive(s.req.verb);
    if (!resp.ok()) {
      out.transport = resp.status();
      break;
    }
    const int64_t latency =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start).count() - s.intended_ns;
    ++out.received;
    if (!resp->ok()) {
      if (static_cast<StatusCode>(resp->status) ==
          StatusCode::kResourceExhausted) {
        ++out.rejected;
      } else {
        ++out.errors;
        std::fprintf(stderr, "loadgen: remote error on id %llu: %s\n",
                     static_cast<unsigned long long>(resp->id),
                     resp->text.c_str());
      }
    } else if (s.measured) {
      out.latencies_ns.push_back(latency);
    }
  }
  sender.join();
  if (out.transport.ok() && !send_status.ok()) out.transport = send_status;
  return out;
}

int64_t Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

struct PointResult {
  double qps_target = 0;
  double qps_achieved = 0;
  uint64_t measured = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  bool transport_failed = false;
  int64_t p50 = 0, p99 = 0, p999 = 0, mean = 0, max = 0;
};

/// One (server, qps) measurement across `conns` connections. The target
/// rate is split evenly; each connection gets its own deterministic
/// schedule (seed + index) so reruns are comparable.
PointResult MeasurePoint(const Options& opt, const std::string& host,
                         uint16_t port, double qps,
                         const std::vector<ServeWorkloadQuery>& mix) {
  PointResult pr;
  pr.qps_target = qps;
  std::vector<std::vector<Scheduled>> plans;
  for (size_t i = 0; i < opt.conns; ++i) {
    plans.push_back(BuildSchedule(mix, qps / static_cast<double>(opt.conns),
                                  opt.duration_ms, opt.warmup_ms, opt.limit,
                                  opt.seed + 100 * (i + 1)));
  }
  std::vector<ConnOutcome> outcomes(opt.conns);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < opt.conns; ++i) {
      threads.emplace_back([&, i] {
        outcomes[i] = RunConnection(host, port, plans[i]);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<int64_t> all;
  uint64_t received = 0;
  for (const ConnOutcome& o : outcomes) {
    all.insert(all.end(), o.latencies_ns.begin(), o.latencies_ns.end());
    received += o.received;
    pr.rejected += o.rejected;
    pr.errors += o.errors;
    if (!o.transport.ok()) {
      pr.transport_failed = true;
      std::fprintf(stderr, "loadgen: transport failure: %s\n",
                   o.transport.ToString().c_str());
    }
  }
  std::sort(all.begin(), all.end());
  pr.measured = all.size();
  pr.qps_achieved = elapsed_s > 0 ? static_cast<double>(received) / elapsed_s
                                  : 0;
  pr.p50 = Percentile(all, 0.50);
  pr.p99 = Percentile(all, 0.99);
  pr.p999 = Percentile(all, 0.999);
  pr.max = all.empty() ? 0 : all.back();
  if (!all.empty()) {
    long double sum = 0;
    for (int64_t v : all) sum += static_cast<long double>(v);
    pr.mean = static_cast<int64_t>(sum / static_cast<long double>(all.size()));
  }
  return pr;
}

void PrintPoint(const std::string& label, const PointResult& pr) {
  std::printf(
      "%-28s target %8.0f qps  achieved %8.0f  p50 %8.1fus  p99 %8.1fus  "
      "p999 %8.1fus  rejected %llu  errors %llu\n",
      label.c_str(), pr.qps_target, pr.qps_achieved,
      static_cast<double>(pr.p50) / 1e3, static_cast<double>(pr.p99) / 1e3,
      static_cast<double>(pr.p999) / 1e3,
      static_cast<unsigned long long>(pr.rejected),
      static_cast<unsigned long long>(pr.errors));
  std::fflush(stdout);
}

benchjson::Entry ToEntry(const std::string& name, const Options& opt,
                         size_t shards, const PointResult& pr) {
  benchjson::Entry e;
  e.name = name;
  e.real_ns = static_cast<double>(pr.mean);
  e.cpu_ns = 0;
  e.iterations = static_cast<int64_t>(pr.measured);
  e.counters = {
      {"qps_target", pr.qps_target},
      {"qps_achieved", pr.qps_achieved},
      {"p50_ns", static_cast<double>(pr.p50)},
      {"p99_ns", static_cast<double>(pr.p99)},
      {"p999_ns", static_cast<double>(pr.p999)},
      {"max_ns", static_cast<double>(pr.max)},
      {"conns", static_cast<double>(opt.conns)},
      {"shards", static_cast<double>(shards)},
      {"rejected", static_cast<double>(pr.rejected)},
      {"errors", static_cast<double>(pr.errors)},
  };
  return e;
}

std::vector<double> ParseDoubles(const std::string& s) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stod(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: fgq_loadgen (--self-serve | --connect=HOST:PORT)\n"
      "  --qps=L          comma list of target rates (default 200,1000,4000)\n"
      "  --shards=L       comma list of shard counts, self-serve only "
      "(default 1,2)\n"
      "  --conns=N        client connections per point (default 4)\n"
      "  --duration-ms=N  measured window per point (default 2000)\n"
      "  --warmup-ms=N    leading unmeasured slice (default 300)\n"
      "  --tuples=N       rows per workload relation (default 2000)\n"
      "  --limit=N        kEnumerateLimit row cap (default 32)\n"
      "  --seed=N         schedule + database seed (default 1)\n"
      "  --json=PATH      write the sweep in the BENCH_PR*.json schema\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v;
    if (arg == "--self-serve") {
      opt.self_serve = true;
    } else if ((v = val("--connect="))) {
      const char* colon = std::strrchr(v, ':');
      if (!colon) return Usage();
      opt.connect_host.assign(v, colon - v);
      opt.connect_port = static_cast<uint16_t>(std::atoi(colon + 1));
    } else if ((v = val("--qps="))) {
      opt.qps = ParseDoubles(v);
    } else if ((v = val("--shards="))) {
      opt.shards.clear();
      for (double d : ParseDoubles(v)) opt.shards.push_back(static_cast<size_t>(d));
    } else if ((v = val("--conns="))) {
      opt.conns = static_cast<size_t>(std::atoi(v));
    } else if ((v = val("--duration-ms="))) {
      opt.duration_ms = std::atoi(v);
    } else if ((v = val("--warmup-ms="))) {
      opt.warmup_ms = std::atoi(v);
    } else if ((v = val("--tuples="))) {
      opt.tuples = static_cast<size_t>(std::atoll(v));
    } else if ((v = val("--limit="))) {
      opt.limit = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--seed="))) {
      opt.seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--json="))) {
      opt.json_path = v;
    } else {
      return Usage();
    }
  }
  if (opt.self_serve == !opt.connect_host.empty()) return Usage();
  if (opt.qps.empty() || opt.conns == 0 || opt.duration_ms <= 0) return Usage();

  const std::vector<ServeWorkloadQuery> mix = ServeWorkloadMix();
  std::vector<benchjson::Entry> entries;
  bool failed = false;

  if (!opt.connect_host.empty()) {
    for (double qps : opt.qps) {
      PointResult pr =
          MeasurePoint(opt, opt.connect_host, opt.connect_port, qps, mix);
      char label[64];
      std::snprintf(label, sizeof label, "serve/external/qps:%.0f", qps);
      PrintPoint(label, pr);
      entries.push_back(ToEntry(label, opt, 0, pr));
      failed |= pr.transport_failed || pr.errors > 0;
    }
  } else {
    SnapshotStore store(ServeWorkloadDatabase(opt.tuples, opt.seed));
    for (size_t shards : opt.shards) {
      net::NetServerOptions sopt;
      sopt.num_shards = shards;
      Result<std::unique_ptr<net::NetServer>> server =
          net::NetServer::Start(&store, sopt);
      if (!server.ok()) {
        std::fprintf(stderr, "loadgen: cannot start server: %s\n",
                     server.status().ToString().c_str());
        return 1;
      }
      // One server instance per shard count, reused across the QPS sweep:
      // after the first point the plan cache is warm, which is the steady
      // state a latency curve should describe.
      for (double qps : opt.qps) {
        PointResult pr =
            MeasurePoint(opt, "127.0.0.1", (*server)->port(), qps, mix);
        char label[64];
        std::snprintf(label, sizeof label, "serve/shards:%zu/qps:%.0f",
                      shards, qps);
        PrintPoint(label, pr);
        entries.push_back(ToEntry(label, opt, shards, pr));
        failed |= pr.transport_failed || pr.errors > 0;
      }
      (*server)->Stop();
      const net::NetServerStats stats = (*server)->stats();
      if (stats.protocol_errors != 0) {
        std::fprintf(stderr, "loadgen: server saw %llu protocol errors\n",
                     static_cast<unsigned long long>(stats.protocol_errors));
        failed = true;
      }
    }
  }

  if (!opt.json_path.empty()) {
    if (!benchjson::WriteJson(opt.json_path, argv[0], entries)) {
      std::fprintf(stderr, "loadgen: cannot write '%s'\n",
                   opt.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu entries)\n", opt.json_path.c_str(),
                entries.size());
  }
  return failed ? 1 : 0;
}
