#include "wire.h"

#include <deque>
#include <string>

#include <errno.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

namespace fgqbench {

namespace {

/// How long the generator waits for stragglers after the last send.
constexpr int64_t kDrainNs = 20LL * 1000000000;

fgq::net::Verb VerbOf(const Inputs& in, const StreamOp& op) {
  if (op.is_write()) return fgq::net::Verb::kMutate;
  return in.queries[op.query].count ? fgq::net::Verb::kCount
                                    : fgq::net::Verb::kEnumerateLimit;
}

}  // namespace

fgq::Result<std::unique_ptr<Fixture>> SetUp(const Inputs& in) {
  auto f = std::make_unique<Fixture>();
  f->store = std::make_unique<fgq::SnapshotStore>(in.db);
  FGQ_RETURN_NOT_OK(f->store->MaintainIndex(kWriteRelation, {0}));
  fgq::net::NetServerOptions opts;
  opts.num_shards = 1;
  opts.service.num_workers = 1;
  // Deep enough to ride out a host stall of 0.2 s at the read rate: a
  // shared machine's hiccups show as latency, not as shed requests.
  opts.service.max_pending = 1024;
  FGQ_ASSIGN_OR_RETURN(f->server,
                       fgq::net::NetServer::Start(f->store.get(), opts));
  for (int c = 0; c <= kNumConns; ++c) {
    FGQ_ASSIGN_OR_RETURN(std::unique_ptr<fgq::net::Client> client,
                         fgq::net::Client::Connect("127.0.0.1",
                                                   f->server->port()));
    f->conns.push_back(std::move(client));
  }
  for (size_t q = 0; q < in.queries.size(); ++q) {
    StreamOp op;
    op.query = static_cast<int>(q);
    FGQ_ASSIGN_OR_RETURN(fgq::net::Response r,
                         f->conns[0]->Call(ToRequest(in, op, q + 1)));
    if (!r.ok()) {
      return fgq::Status::Internal("warm-up of '" + in.queries[q].text +
                                   "' failed: " + r.text);
    }
  }
  fgq::ExecOptions eo;
  eo.num_threads = kEngineThreads;
  f->engine = std::make_unique<fgq::Engine>(eo);
  return f;
}

WireSlice RunStream(Fixture& f, const Inputs& in, size_t begin, size_t end,
                    Observed* obs, fgq::TraceContext* trace) {
  // Wake-ups within a microsecond of the due time instead of the default
  // 50 us timer slack; the lag that remains is recorded per send.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  WireSlice out;
  if (begin >= end) return out;
  const int64_t base_ns = in.stream[begin].at_ns;
  std::deque<size_t> inflight[kNumConns];
  fgq::net::FrameReader readers[kNumConns];
  pollfd pfd[kNumConns];
  for (int c = 0; c < kNumConns; ++c) {
    pfd[c].fd = f.conns[c]->fd();
    pfd[c].events = POLLIN;
  }
  size_t outstanding = 0;
  auto fail_conn = [&](int c) {
    obs->transport_failures += inflight[c].size();
    outstanding -= inflight[c].size();
    inflight[c].clear();
    pfd[c].fd = -1;
  };

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  size_t next = begin;
  int64_t drain_deadline = -1;
  std::vector<uint8_t> payload;
  char buf[64 * 1024];
  while (next < end || outstanding > 0) {
    int64_t now = NanosSince(start);
    while (next < end && in.stream[next].at_ns - base_ns <= now) {
      const StreamOp& op = in.stream[next];
      obs->lag_us[next] = static_cast<double>(now - (op.at_ns - base_ns)) / 1e3;
      fgq::Status st = fgq::Status::OK();
      if (pfd[op.conn].fd < 0) {
        st = fgq::Status::Internal("connection lost");
      } else {
        fgq::TraceSpan span(trace, "net.send", "net");
        st = f.conns[op.conn]->Send(ToRequest(in, op, next + 1));
      }
      if (st.ok()) {
        inflight[op.conn].push_back(next);
        ++outstanding;
      } else {
        ++obs->transport_failures;
      }
      ++next;
      now = NanosSince(start);
    }
    if (next >= end && outstanding == 0) break;
    int64_t wait_ns;
    if (next < end) {
      wait_ns = in.stream[next].at_ns - base_ns - now;
    } else {
      if (drain_deadline < 0) drain_deadline = now + kDrainNs;
      wait_ns = drain_deadline - now;
      if (wait_ns <= 0) {
        for (int c = 0; c < kNumConns; ++c) fail_conn(c);
        break;
      }
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int ready = ppoll(pfd, kNumConns, &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      for (int c = 0; c < kNumConns; ++c) fail_conn(c);
      break;
    }
    for (int c = 0; c < kNumConns && ready > 0; ++c) {
      if (pfd[c].fd < 0 || (pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = ::read(pfd[c].fd, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        fail_conn(c);
        continue;
      }
      const int64_t recv_ns = NanosSince(start);
      readers[c].Feed(buf, static_cast<size_t>(n));
      for (;;) {
        const fgq::net::FrameReader::State st = readers[c].Next(&payload);
        if (st == fgq::net::FrameReader::State::kNeedMore) break;
        if (st == fgq::net::FrameReader::State::kError || inflight[c].empty()) {
          fail_conn(c);
          break;
        }
        const size_t i = inflight[c].front();
        inflight[c].pop_front();
        --outstanding;
        const StreamOp& op = in.stream[i];
        fgq::Status dst = fgq::Status::OK();
        {
          fgq::TraceSpan span(trace, "net.decode", "net");
          dst = fgq::net::DecodeResponse(payload.data(), payload.size(),
                                         VerbOf(in, op), &obs->resp[i]);
        }
        if (!dst.ok()) {
          ++obs->transport_failures;
          continue;
        }
        obs->got[i] = 1;
        obs->lat_ns[i] = recv_ns - (op.at_ns - base_ns);
        ++out.completed;
      }
    }
  }
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return out;
}

}  // namespace fgqbench
