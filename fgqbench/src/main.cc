// fgq-bench: one run of one workload.
//
//   fgq_bench --workload hot-read|analytic --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit SHA]
//
// A run builds its inputs from the seed, sets the system up several times
// (the median is setup_s), runs the in-process analytic passes, then the
// open-loop wire stream in slices of kSliceSeconds, checks every answer,
// and prints one context line and, last, one JSON result line. --trace 1
// prints the per-layer metrics of BENCHMARK.json instead of the
// end-to-end ones and writes the spans as Chrome trace JSON into DIR.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analytic.h"
#include "common.h"
#include "fgq/util/simd.h"
#include "layers.h"
#include "verify.h"
#include "wire.h"
#include "workload.h"

#ifndef FGQBENCH_BUILD_TYPE
#define FGQBENCH_BUILD_TYPE "unknown"
#endif

using namespace fgqbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Length of a wire slice; the wire metrics are per-slice statistics.
/// Short enough that a run has many slices between the host's stalls,
/// long enough (400 reads at 4000/s) for a p90 with 40 reads beyond it.
constexpr double kSliceSeconds = 0.1;
/// Tail percentile of read_tail_us (see README.md for why this one).
constexpr double kTailQuantile = 0.90;
/// The quantiles reported over wire slices and over in-process passes.
/// See README.md: the host's stalls make a wire slice slow by up to 50x,
/// so a low quantile over many slices tracks the code and a median the
/// stalls; a pass varies by tens of percent either way, so the median
/// over passes is the steadiest.
constexpr double kWireQuantile = 0.1;
constexpr double kPassQuantile = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/fgqbench/out";
  std::string commit = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: fgq_bench --workload hot-read|analytic --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Latencies in microseconds of the reads (or writes) among ops
/// [begin, end) that were answered and lie past the warm-up.
std::vector<double> Latencies(const Inputs& in, const std::vector<int64_t>& lat_ns,
                              size_t begin, size_t end, bool writes) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    const StreamOp& op = in.stream[i];
    if (op.is_write() != writes || op.at_ns < in.warmup_ns || lat_ns[i] < 0) {
      continue;
    }
    out.push_back(static_cast<double>(lat_ns[i]) / 1e3);
  }
  return out;
}

/// Generator lags in microseconds of the ops [begin, end) that were sent.
std::vector<double> Lags(const std::vector<double>& lag_us, size_t begin, size_t end) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    if (lag_us[i] >= 0) out.push_back(lag_us[i]);
  }
  return out;
}

/// One slice of the wire stream.
struct Slice {
  size_t begin = 0, end = 0;
  bool traced = false;
  WireSlice wire;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "fgq-bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return Usage();
  }
  const double wire_seconds = args.seconds * kWireShare;
  const double inproc_seconds = args.seconds - wire_seconds;

  const Inputs in = MakeInputs(*spec, args.seed, kWarmupSeconds + wire_seconds);
  const size_t n = in.stream.size();
  auto op_at = [&](double seconds) {
    return static_cast<size_t>(
        std::lower_bound(in.stream.begin(), in.stream.end(),
                         static_cast<int64_t>(seconds * 1e9),
                         [](const StreamOp& op, int64_t t) { return op.at_ns < t; }) -
        in.stream.begin());
  };

  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int r = 0; r < kSetupReps; ++r) {
    f.reset();
    const Clock::time_point t0 = Clock::now();
    fgq::Result<std::unique_ptr<Fixture>> made = SetUp(in);
    if (!made.ok()) {
      std::fprintf(stderr, "fgq-bench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    f = std::move(made).value();
  }

  Ledger ledger;
  fgq::TraceContext trace_ctx;
  fgq::TraceContext* trace = args.trace ? &trace_ctx : nullptr;

  // The analytic passes read one snapshot of the analytic database
  // throughout. Its store is not the served one, so it is not set-up.
  const fgq::SnapshotStore analytic_store(in.analytic_db);
  const std::shared_ptr<const fgq::Snapshot> snap = analytic_store.Current();
  const AnalyticQueries aq;
  fgq::Result<AnalyticTruth> truth = ComputeTruth(*f->engine, aq, snap);
  if (!truth.ok()) {
    std::fprintf(stderr, "fgq-bench: reference evaluation failed: %s\n",
                 truth.status().ToString().c_str());
    return 1;
  }

  AnalyticTimes at;
  RunAnalytic(*f->engine, aq, *truth, snap, inproc_seconds, &ledger, trace, &at);

  // The wire stream runs as back-to-back slices; the first also carries
  // the warm-up. The traced run traces every odd slice; the even ones,
  // untraced, are the base of trace.overhead_frac.
  Observed obs(n);
  const int num_slices =
      std::max(2, static_cast<int>(wire_seconds / kSliceSeconds + 0.5));
  std::vector<Slice> slices(num_slices);
  const fgq::net::NetServerStats ns0 = f->server->stats();
  for (int r = 0; r < num_slices; ++r) {
    Slice& slice = slices[r];
    slice.begin = r == 0 ? 0 : slices[r - 1].end;
    slice.end = r + 1 == num_slices
                    ? n
                    : op_at(kWarmupSeconds + wire_seconds * (r + 1) / num_slices);
    slice.traced = args.trace && r % 2 == 1;
    slice.wire = RunStream(*f, in, slice.begin, slice.end, &obs,
                            slice.traced ? trace : nullptr);
  }
  const fgq::net::NetServerStats ns1 = f->server->stats();

  ledger.Attempt(n);
  std::vector<Answer> wire_answers(n);
  std::vector<const Answer*> wire_ptrs(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    if (!obs.got[i]) continue;
    wire_answers[i] = FromWire(obs.resp[i]);
    wire_ptrs[i] = &wire_answers[i];
  }
  for (uint64_t k = 0; k < obs.transport_failures; ++k) {
    ledger.Fail("wire transport (request sent but never answered)");
  }
  const Verifier verifier(in, *f->engine);
  uint64_t checked = verifier.Check(wire_ptrs, true, "wire", &ledger);

  // Per untraced slice: read p50 and tail, CPU per op, and the generator's
  // lag; the process reports a low quantile over slices.
  std::vector<double> read_p50s, read_tails, cpu_per_op, lag_tails;
  size_t read_samples = 0, write_samples = 0;
  for (const Slice& slice : slices) {
    if (slice.traced) continue;
    const std::vector<double> reads =
        Latencies(in, obs.lat_ns, slice.begin, slice.end, false);
    const std::vector<double> writes =
        Latencies(in, obs.lat_ns, slice.begin, slice.end, true);
    read_samples += reads.size();
    write_samples += writes.size();
    cpu_per_op.push_back(slice.wire.cpu_us_per_op());
    // A tail needs at least ten samples beyond it.
    if (static_cast<double>(reads.size()) * (1 - kTailQuantile) < 10) continue;
    read_p50s.push_back(Quantile(reads, 0.5));
    read_tails.push_back(Quantile(reads, kTailQuantile));
    lag_tails.push_back(Quantile(Lags(obs.lag_us, slice.begin, slice.end), kTailQuantile));
  }
  const double read_tail = Quantile(read_tails, kWireQuantile);
  const double lag_tail = Quantile(lag_tails, kWireQuantile);
  const std::vector<double> lags = Lags(obs.lag_us, 0, n);
  // Sends never block on a healthy server, so a late send means the
  // generator itself was busy or descheduled; when that lateness is a
  // large part of the reported tail (the same statistic over the same
  // slices), the tail measures the generator.
  const bool valid = lag_tail <= 0.5 * read_tail;
  if (!valid) {
    std::fprintf(stderr,
                 "fgq-bench: run invalid: generator lag p90 %.1f us vs read "
                 "p90 %.1f us\n",
                 lag_tail, read_tail);
  }

  Metrics m;
  if (!args.trace) {
    m.SetSampled("setup_s", setup_s, 0.5, "s");
    m.SetSampled("read_p50_us", read_p50s, kWireQuantile, "us");
    m.SetSampled("read_tail_p90_us", read_tails, kWireQuantile, "us");
    m.SetSampled("cpu_us_per_op", cpu_per_op, kWireQuantile, "us");
    m.SetSampled("decide_ms", at.decide_ms, kPassQuantile, "ms");
    m.SetSampled("first_answer_ms", at.first_answer_ms, kPassQuantile, "ms");
    m.SetSampled("delay_ns", at.delay_ns, kPassQuantile, "ns");
    m.SetSampled("join_ms", at.join_ms, kPassQuantile, "ms");
    m.SetSampled("count_ms", at.count_ms, kPassQuantile, "ms");
    m.SetSampled("sumproduct_ms", at.sumproduct_ms, kPassQuantile, "ms");
  } else {
    PingLayer(*f, trace, &ledger);
    // The replay covers slice 0, which is untraced.
    const size_t replay_end = slices[0].end;
    Replay replay = RunReplay(in, replay_end, trace);
    ledger.Attempt(replay_end);
    std::vector<Answer> rep_answers(n);
    std::vector<const Answer*> rep_ptrs(n, nullptr);
    std::vector<double> queue_us, hit_us;
    double misses = 0;
    auto serve_sample = [&](const fgq::ServiceResponse& r) {
      queue_us.push_back(std::chrono::duration<double, std::micro>(r.queue_wait).count());
      if (r.cache_hit) {
        hit_us.push_back(std::chrono::duration<double, std::micro>(r.exec_time).count());
      } else {
        ++misses;
      }
    };
    for (const fgq::ServiceResponse& r : replay.warmup) serve_sample(r);
    for (size_t i = 0; i < replay_end; ++i) {
      if (!replay.got[i]) {
        ledger.Fail("replay op " + std::to_string(i) + " never completed");
        continue;
      }
      rep_answers[i] = FromService(replay.resp[i]);
      rep_ptrs[i] = &rep_answers[i];
      if (!in.stream[i].is_write() && replay.resp[i].status.ok()) {
        serve_sample(replay.resp[i]);
      }
    }
    const double hits = static_cast<double>(hit_us.size());
    checked += verifier.Check(rep_ptrs, false, "replay", &ledger);
    ProbeLayers(in, *f->engine, aq, *truth, snap, *replay.store, trace, &ledger);

    const std::map<std::string, std::vector<double>> spans = SpanDurationsUs(trace_ctx);
    auto span = [&](const char* name) -> std::vector<double> {
      auto it = spans.find(name);
      return it == spans.end() ? std::vector<double>() : it->second;
    };
    double run_total = 0;
    for (double us : span("eval.run")) run_total += us;
    std::vector<double> traced_cpu;
    for (const Slice& slice : slices) {
      if (slice.traced) traced_cpu.push_back(slice.wire.cpu_us_per_op());
    }

    m.Set("net.ping_rtt_us.p50", Median(span("net.ping")), "us");
    m.Set("net.overhead_us",
          Mean(Latencies(in, obs.lat_ns, 0, replay_end, false)) -
              Mean(Latencies(in, replay.lat_ns, 0, replay_end, false)),
          "us");
    m.Set("net.rejected", static_cast<double>(ns1.rejected - ns0.rejected), "count");
    m.Set("net.protocol_errors",
          static_cast<double>(ns1.protocol_errors - ns0.protocol_errors), "count");
    m.Set("serve.queue_wait_us.p50", Quantile(queue_us, 0.5), "us");
    m.Set("serve.queue_wait_us.p99", Quantile(queue_us, 0.99), "us");
    m.Set("serve.exec_hit_us.p50", Quantile(hit_us, 0.5), "us");
    m.Set("serve.hits", hits, "count");
    m.Set("serve.misses", misses, "count");
    m.Set("serve.hit_rate", hits / (hits + misses), "ratio");
    m.Set("db.pin_ns.p50", Median(span("db.pin")) * 1e3 / kPinsPerSpan, "ns");
    m.Set("db.apply_us.p50", Quantile(span("db.apply"), 0.5), "us");
    m.Set("db.apply_us.p99", Quantile(span("db.apply"), 0.99), "us");
    m.Set("db.delta_built", static_cast<double>(replay.store_stats.indexes_delta_built), "count");
    m.Set("db.rebuilt", static_cast<double>(replay.store_stats.indexes_rebuilt), "count");
    m.Set("db.index_build_ms", Median(span("db.index_build")) / 1e3, "ms");
    m.Set("query.parse_us.p50", Median(span("query.parse")), "us");
    m.Set("eval.classify_us.p50", Median(span("eval.classify")), "us");
    m.Set("eval.enumerate_open_ms", Median(span("eval.enumerate_open")) / 1e3, "ms");
    m.Set("eval.run_ms", run_total / 1e3 / static_cast<double>(at.passes()), "ms");
    m.Set("vm.compile_query_ms", Median(span("vm.compile_query")) / 1e3, "ms");
    m.Set("vm.run_count_ms", Median(span("vm.run_count")) / 1e3, "ms");
    m.Set("vm.run_minplus_ms", Median(span("vm.run_minplus")) / 1e3, "ms");
    m.Set("count.dp_ms", Median(span("count.dp")) / 1e3, "ms");
    m.Set("trace.overhead_frac", Median(traced_cpu) / Median(cpu_per_op) - 1, "ratio");

    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    const fgq::Status st = trace_ctx.WriteChromeTrace(path);
    const std::string note = st.ok() ? "spans written to " + path : st.ToString();
    std::fprintf(stderr, "fgq-bench: %s\n", note.c_str());
  }

  std::ostringstream ctx;
  ctx << "{\"context\": {\"workload\": " << Quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_path\": " << Quote(fgq::ActiveSimdPathName())
      << ", \"build_type\": " << Quote(FGQBENCH_BUILD_TYPE)
      << ", \"compiler\": " << Quote(std::string("gcc ") + __VERSION__)
      << ", \"commit\": " << Quote(args.commit)
      << ", \"engine_threads\": " << kEngineThreads
      << ", \"read_samples\": " << read_samples
      << ", \"write_samples\": " << write_samples
      << ", \"analytic_passes\": " << at.passes()
      << ", \"reference_ms_p50\": " << Num(Median(at.reference_ms))
      << ", \"answers_checked\": " << checked
      << ", \"generator_lag_p50_us\": " << Num(Quantile(lags, 0.5))
      << ", \"generator_lag_p99_us\": " << Num(Quantile(lags, 0.99))
      << ", \"valid\": " << (valid ? "true" : "false") << "}}";
  std::printf("%s\n", ctx.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (ledger.wrong() == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m.values) {
    res << (first ? "" : ", ") << Quote(name) << ": {\"value\": " << Num(metric.value)
        << ", \"unit\": " << Quote(metric.unit);
    if (!metric.samples.empty()) {
      res << ", \"quantile\": " << Num(metric.quantile) << ", \"samples\": [";
      for (size_t i = 0; i < metric.samples.size(); ++i) {
        res << (i ? ", " : "") << Num(metric.samples[i]);
      }
      res << "]";
    }
    res << "}";
    first = false;
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return 0;
}
