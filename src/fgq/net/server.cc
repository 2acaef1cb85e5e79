#include "fgq/net/server.h"

#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fgq/query/parser.h"
#include "fgq/trace/explain.h"
#include "fgq/util/thread_pool.h"

#ifdef __linux__

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace fgq {
namespace net {

namespace {

/// epoll_event.data.u64 tags: the two singleton fds, then connection ids.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Result<int> OpenListener(const std::string& host, uint16_t port,
                         bool reuseport) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    const Status st = Errno("setsockopt(SO_REUSEPORT)");
    ::close(fd);
    return st;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 512) < 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  return fd;
}

Result<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

/// One response awaiting its slot in the connection's ordered reply
/// stream: either already encoded (ping, explain, per-request errors) or
/// a future the shard polls once its on_done hook fires.
struct PendingReply {
  uint64_t req_id = 0;
  Verb verb = Verb::kRows;
  std::future<ServiceResponse> fut;  ///< Invalid for pre-encoded replies.
  std::string frame;                 ///< Pre-encoded reply (fut invalid).
};

struct Conn {
  int fd = -1;
  uint64_t id = 0;
  FrameReader reader;
  std::deque<PendingReply> pending;  ///< Replies in request order.
  /// Encoded-but-unsent response frames, in order. Kept as separate
  /// strings (no concatenation copy) and sent with one writev per flush:
  /// a pipelined burst of small frames costs one syscall, not one per
  /// frame.
  std::deque<std::string> outq;
  size_t out_pos = 0;    ///< Sent prefix of outq.front().
  size_t out_bytes = 0;  ///< Total unsent bytes across outq.
  uint32_t armed = 0;                ///< Last epoll interest mask.
  bool close_after_flush = false;    ///< Fatal protocol error seen.
  bool peer_closed = false;          ///< EOF read (half-close supported).

  Conn(int f, uint64_t i, uint32_t max_payload)
      : fd(f), id(i), reader(max_payload) {}
  size_t unsent() const { return out_bytes; }

  void PushFrame(std::string frame) {
    out_bytes += frame.size();
    outq.push_back(std::move(frame));
  }
  /// Advances the send cursor past `n` just-written bytes; returns how
  /// many whole frames that completed.
  size_t Consume(size_t n) {
    out_bytes -= n;
    size_t completed = 0;
    while (n > 0) {
      const size_t left = outq.front().size() - out_pos;
      if (n < left) {
        out_pos += n;
        break;
      }
      n -= left;
      out_pos = 0;
      outq.pop_front();
      ++completed;
    }
    return completed;
  }
};

}  // namespace

struct NetServer::Impl {
  struct Shard {
    Impl* owner = nullptr;
    size_t index = 0;
    int listen_fd = -1;  ///< -1 on non-zero shards in router mode.
    int epoll_fd = -1;
    int wake_fd = -1;
    std::unique_ptr<QueryService> service;
    /// Flush accounting, surfaced through the shard service's metrics
    /// (`\stats`): writev calls vs frames they carried — the batching
    /// ratio. Cached Counter handles; registry references are stable.
    Counter* flushes = nullptr;
    Counter* flushed_frames = nullptr;
    std::thread thread;
    /// Set by the loop itself before it serves anything, so every request
    /// hook (which runs after its Submit) sees it.
    std::thread::id loop_thread;

    /// Cross-thread mailbox: fds handed over by the router shard and ids
    /// of connections whose response futures became ready. Drained by
    /// the shard thread on a wake_fd event.
    std::mutex mu;
    std::vector<int> incoming;
    std::vector<uint64_t> done;

    /// Shard-thread-private state.
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    uint64_t next_conn_id = kFirstConnId;

    void Wake() {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
    }
  };

  SnapshotStore* store = nullptr;
  NetServerOptions opts;
  uint16_t port = 0;
  std::vector<std::unique_ptr<Shard>> shards;

  std::atomic<bool> stopping{false};
  bool joined = false;
  std::mutex stop_mu;
  std::chrono::steady_clock::time_point drain_deadline;
  std::atomic<size_t> rr_next{0};

  std::atomic<uint64_t> accepted{0}, closed{0}, requests{0}, responses{0},
      protocol_errors{0}, parse_errors{0}, rejected{0};

  ~Impl() { StopAll(); }

  void StopAll() {
    std::lock_guard<std::mutex> g(stop_mu);
    if (joined) return;
    drain_deadline = std::chrono::steady_clock::now() + opts.drain_timeout;
    stopping.store(true, std::memory_order_release);
    for (auto& s : shards) s->Wake();
    for (auto& s : shards) {
      if (s->thread.joinable()) s->thread.join();
    }
    joined = true;
  }

  // ----- Shard event loop --------------------------------------------

  void ShardLoop(Shard* s) {
    s->loop_thread = std::this_thread::get_id();
    std::vector<epoll_event> evs(64);
    for (;;) {
      const bool draining = stopping.load(std::memory_order_acquire);
      const int timeout_ms = draining ? 10 : -1;
      const int n = ::epoll_wait(s->epoll_fd, evs.data(),
                                 static_cast<int>(evs.size()), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll fd gone — unrecoverable; tear down.
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = evs[i].data.u64;
        if (tag == kListenTag) {
          HandleAccept(s, draining);
          continue;
        }
        if (tag == kWakeTag) {
          DrainWake(s);
          continue;
        }
        auto it = s->conns.find(tag);
        if (it == s->conns.end()) continue;  // Closed earlier this batch.
        Conn* c = it->second.get();
        if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(s, tag);
          continue;
        }
        if (evs[i].events & EPOLLIN) HandleReadable(s, c);
        it = s->conns.find(tag);  // Reads can close the connection.
        if (it == s->conns.end()) continue;
        c = it->second.get();
        if (evs[i].events & EPOLLOUT) Flush(s, c);
        it = s->conns.find(tag);  // ... and so can writes.
        if (it != s->conns.end()) Settle(s, it->second.get());
      }
      if (draining && DrainTick(s)) break;
    }
    // Teardown, in dependency order: the service first (joins its
    // workers, after which no on_done hook can touch wake_fd), then the
    // connections, then the shard's own fds.
    s->service->CancelAll();
    s->service->Stop();
    std::vector<uint64_t> ids;
    ids.reserve(s->conns.size());
    for (const auto& [id, conn] : s->conns) ids.push_back(id);
    for (uint64_t id : ids) CloseConn(s, id);
    {
      // Handed over by the router after this loop's last wake-up.
      std::lock_guard<std::mutex> g(s->mu);
      for (int fd : s->incoming) ::close(fd);
      s->incoming.clear();
    }
    if (s->listen_fd >= 0) ::close(s->listen_fd);
    ::close(s->wake_fd);
    ::close(s->epoll_fd);
  }

  /// Shutdown progress check; true once every connection is gone. Flushes
  /// idle connections away and, past the drain deadline, cancels
  /// in-flight work and force-closes the rest. A connection is idle only
  /// once its socket holds no unread request either: requests that
  /// arrived after this round's epoll_wait are read and dispatched first.
  bool DrainTick(Shard* s) {
    if (s->listen_fd >= 0) {
      // Connections the kernel completed before the stop already belong
      // to their clients: adopt the accept backlog once, then stop
      // listening.
      HandleAccept(s, /*draining=*/true);
      ::close(s->listen_fd);
      s->listen_fd = -1;
    }
    const bool expired = std::chrono::steady_clock::now() >= drain_deadline;
    if (expired) s->service->CancelAll();
    std::vector<uint64_t> ids;
    ids.reserve(s->conns.size());
    for (const auto& [id, conn] : s->conns) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = s->conns.find(id);
      if (!expired && !it->second->peer_closed &&
          !it->second->close_after_flush) {
        HandleReadable(s, it->second.get());
        it = s->conns.find(id);  // Reads can close the connection.
        if (it == s->conns.end()) continue;
      }
      Conn* c = it->second.get();
      DrainReplies(s, c);
      Flush(s, c);
      if (expired || (c->pending.empty() && c->unsent() == 0)) {
        CloseConn(s, id);
      }
    }
    return s->conns.empty();
  }

  /// Accepts the whole backlog. Draining, every connection stays on this
  /// shard, whose loop is known to be still running.
  void HandleAccept(Shard* s, bool draining) {
    for (;;) {
      const int fd =
          ::accept4(s->listen_fd, nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (drained) or transient accept error.
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!draining && !opts.use_reuseport && shards.size() > 1) {
        // Router mode: shard 0 accepts, connections go round-robin.
        Shard* target =
            shards[rr_next.fetch_add(1, std::memory_order_relaxed) %
                   shards.size()]
                .get();
        if (target != s) {
          {
            std::lock_guard<std::mutex> g(target->mu);
            target->incoming.push_back(fd);
          }
          target->Wake();
          continue;
        }
      }
      AdoptConn(s, fd);
    }
  }

  void AdoptConn(Shard* s, int fd) {
    const uint64_t id = s->next_conn_id++;
    auto conn = std::make_unique<Conn>(fd, id, opts.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(s->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      return;
    }
    conn->armed = EPOLLIN;
    s->conns.emplace(id, std::move(conn));
  }

  void DrainWake(Shard* s) {
    uint64_t count = 0;
    while (::read(s->wake_fd, &count, sizeof(count)) > 0) {
    }
    std::vector<int> incoming;
    std::vector<uint64_t> done;
    {
      std::lock_guard<std::mutex> g(s->mu);
      incoming.swap(s->incoming);
      done.swap(s->done);
    }
    // Routed before the stop: drained like any other connection.
    for (int fd : incoming) AdoptConn(s, fd);
    for (uint64_t id : done) {
      auto it = s->conns.find(id);
      if (it == s->conns.end()) continue;  // Closed with work in flight.
      Conn* c = it->second.get();
      DrainReplies(s, c);
      Flush(s, c);
      it = s->conns.find(id);
      if (it != s->conns.end()) Settle(s, it->second.get());
    }
  }

  // ----- Per-connection I/O ------------------------------------------

  void HandleReadable(Shard* s, Conn* c) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        if (!c->close_after_flush) c->reader.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        // Half-close: no more requests, but earlier responses still owed.
        c->peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(s, c->id);
      return;
    }
    std::vector<uint8_t> payload;
    while (!c->close_after_flush) {
      const FrameReader::State st = c->reader.Next(&payload);
      if (st == FrameReader::State::kNeedMore) break;
      if (st == FrameReader::State::kFrame) {
        HandleRequestFrame(s, c, payload.data(), payload.size());
        continue;
      }
      // Framing violation: one last error frame (request id unknowable),
      // then the connection dies once it is flushed.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      PushErrorReply(c, 0, c->reader.error());
      c->close_after_flush = true;
    }
    DrainReplies(s, c);
    Flush(s, c);
    // Settle is the caller's job (the conn may already be gone here).
  }

  /// Appends a pre-encoded reply to the ordered queue. Error responses
  /// carry no body regardless of verb, so kPing encoding is exact.
  void PushErrorReply(Conn* c, uint64_t req_id, const Status& st) {
    Response r;
    r.id = req_id;
    r.status = static_cast<uint8_t>(st.code());
    r.text = st.message();
    PendingReply pr;
    pr.req_id = req_id;
    pr.verb = Verb::kPing;
    EncodeResponse(r, Verb::kPing, &pr.frame);
    c->pending.push_back(std::move(pr));
  }

  void PushEncodedReply(Conn* c, const Response& r, Verb verb) {
    PendingReply pr;
    pr.req_id = r.id;
    pr.verb = verb;
    EncodeResponse(r, verb, &pr.frame);
    c->pending.push_back(std::move(pr));
  }

  void HandleRequestFrame(Shard* s, Conn* c, const uint8_t* data,
                          size_t len) {
    requests.fetch_add(1, std::memory_order_relaxed);
    Request req;
    Status st = DecodeRequest(data, len, &req);
    if (!st.ok()) {
      // Malformed payload inside a well-delimited frame: the stream
      // framing may be intact, but the peer's encoder clearly is not —
      // answer once and drop the connection.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      PushErrorReply(c, req.id, st);
      c->close_after_flush = true;
      return;
    }
    if (req.verb == Verb::kPing) {
      Response r;
      r.id = req.id;
      PushEncodedReply(c, r, Verb::kPing);
      return;
    }
    if (req.verb == Verb::kMutate) {
      HandleMutate(c, req);
      return;
    }
    if (c->pending.size() >= opts.max_pipeline) {
      rejected.fetch_add(1, std::memory_order_relaxed);
      PushErrorReply(c, req.id,
                     Status::ResourceExhausted(
                         "pipeline depth limit (" +
                         std::to_string(opts.max_pipeline) + ") reached"));
      return;
    }
    Result<ConjunctiveQuery> parsed = ParseConjunctiveQuery(req.query);
    if (!parsed.ok()) {
      // Application-level error: the connection stays healthy.
      parse_errors.fetch_add(1, std::memory_order_relaxed);
      PushErrorReply(c, req.id, parsed.status());
      return;
    }
    if (req.verb == Verb::kExplain) {
      // Pin the current snapshot for the (synchronous) explain so a
      // concurrent Apply cannot pull the relations out from under it.
      const std::shared_ptr<const Snapshot> snap = store->Current();
      Result<Explanation> ex = Explain(*parsed, snap->db());
      if (!ex.ok()) {
        PushErrorReply(c, req.id, ex.status());
        return;
      }
      Response r;
      r.id = req.id;
      r.classification = static_cast<uint8_t>(ex->classification);
      r.text = "explain";
      r.epoch = snap->epoch();
      r.explain = ex->Text();
      PushEncodedReply(c, r, Verb::kExplain);
      return;
    }

    ServiceRequest sreq;
    sreq.query = std::move(*parsed);
    sreq.verb = req.verb == Verb::kCount ? ServeVerb::kCount : ServeVerb::kRows;
    sreq.semiring = req.semiring;  // kCounting unless the count verb said so.
    if (req.verb == Verb::kEnumerateLimit) sreq.limit = req.limit;
    if (req.deadline_ms > 0) {
      sreq.timeout = std::chrono::milliseconds(req.deadline_ms);
    }
    // The wake-up path: the worker resolves the future, then this hook
    // nudges the shard's eventfd; the event loop polls the (now ready)
    // future from DrainWake. Ids, not pointers: the connection may be
    // gone by the time the hook runs. A bounded cache hit (or a
    // rejection) resolves inside Submit on this very thread, and
    // HandleReadable drains and flushes after the frame batch, so the
    // hook has nothing to signal there.
    Shard* shard = s;
    const uint64_t conn_id = c->id;
    sreq.on_done = [shard, conn_id](const ServiceResponse&) {
      if (std::this_thread::get_id() == shard->loop_thread) return;
      {
        std::lock_guard<std::mutex> g(shard->mu);
        shard->done.push_back(conn_id);
      }
      shard->Wake();
    };
    PendingReply pr;
    pr.req_id = req.id;
    pr.verb = req.verb;
    // Never block the event loop: a full admission queue is a per-request
    // ResourceExhausted (the future resolves before Submit returns).
    pr.fut = s->service->Submit(std::move(sreq), SubmitPolicy::Reject());
    c->pending.push_back(std::move(pr));
  }

  /// kMutate: applied synchronously on the shard thread. Apply itself is
  /// serialized inside the store (one writer at a time across shards) and
  /// costs O(batch + touched relations), so it does not stall the event
  /// loop meaningfully; doing it inline keeps the per-connection reply
  /// order trivially correct — the epoch a later pipelined query pins is
  /// always >= the epoch this mutate published.
  void HandleMutate(Conn* c, const Request& req) {
    MutationBatch batch;
    batch.reserve(req.mutations.size());
    for (const MutationOp& op : req.mutations) {
      RelationMutation m;
      m.relation = op.relation;
      auto& rows = op.is_delete ? m.deletes : m.inserts;
      if (op.arity == 0) {
        rows.assign(static_cast<size_t>(op.nrows), Tuple{});
      } else {
        rows.reserve(static_cast<size_t>(op.nrows));
        for (size_t r = 0; r < op.nrows; ++r) {
          rows.emplace_back(op.values.begin() + r * op.arity,
                            op.values.begin() + (r + 1) * op.arity);
        }
      }
      batch.push_back(std::move(m));
    }
    Result<uint64_t> epoch = store->Apply(batch);
    if (!epoch.ok()) {
      PushErrorReply(c, req.id, epoch.status());
      return;
    }
    Response r;
    r.id = req.id;
    r.text = "mutate";
    r.epoch = *epoch;
    PushEncodedReply(c, r, Verb::kMutate);
  }

  std::string EncodeServiceReply(uint64_t req_id, Verb verb,
                                 const ServiceResponse& resp) {
    Response r;
    r.id = req_id;
    r.classification = static_cast<uint8_t>(resp.classification);
    if (!resp.status.ok()) {
      if (resp.status.code() == StatusCode::kResourceExhausted) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
      r.status = static_cast<uint8_t>(resp.status.code());
      r.text = resp.status.message();
    } else {
      if (resp.cache_hit) r.flags |= kFlagCacheHit;
      r.text = resp.algorithm;
      r.epoch = resp.epoch;
      switch (verb) {
        case Verb::kRows:
        case Verb::kEnumerateLimit: {
          if (resp.answers) {
            r.arity = static_cast<uint32_t>(resp.answers->arity());
            r.nrows = resp.answers->NumTuples();
            r.values = resp.answers->ToRowMajor();
          }
          break;
        }
        case Verb::kCount:
          // The counting encoding is the legacy decimal body.
          r.count = resp.semiring_value.Encode();
          break;
        case Verb::kExplain:
        case Verb::kPing:
        case Verb::kMutate:
          break;
      }
    }
    std::string frame;
    EncodeResponse(r, verb, &frame);
    return frame;
  }

  void DrainReplies(Shard* s, Conn* c) {
    (void)s;
    while (!c->pending.empty()) {
      PendingReply& front = c->pending.front();
      if (!front.fut.valid()) {
        c->PushFrame(std::move(front.frame));
      } else if (front.fut.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        c->PushFrame(EncodeServiceReply(front.req_id, front.verb,
                                        front.fut.get()));
      } else {
        break;  // Head-of-line response still in flight; order is sacred.
      }
      responses.fetch_add(1, std::memory_order_relaxed);
      c->pending.pop_front();
    }
  }

  /// Gathered write: every queued frame (up to the iovec cap) goes out in
  /// one writev — a pipelined burst of small responses costs one syscall.
  void Flush(Shard* s, Conn* c) {
    // More than enough for any realistic reply burst; a deeper backlog
    // just loops (still one syscall per ~64 frames, not per frame).
    constexpr int kMaxIov = 64;
    while (c->unsent() > 0) {
      iovec iov[kMaxIov];
      int niov = 0;
      size_t skip = c->out_pos;  // Partially-sent head frame.
      for (const std::string& f : c->outq) {
        if (niov == kMaxIov) break;
        iov[niov].iov_base = const_cast<char*>(f.data()) + skip;
        iov[niov].iov_len = f.size() - skip;
        skip = 0;
        ++niov;
      }
      const ssize_t n = ::writev(c->fd, iov, niov);
      if (n > 0) {
        s->flushes->Increment();
        s->flushed_frames->Increment(c->Consume(static_cast<size_t>(n)));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(s, c->id);
      return;
    }
  }

  /// Post-I/O bookkeeping: close a finished connection or re-arm epoll
  /// with the right interest set.
  void Settle(Shard* s, Conn* c) {
    const bool drained = c->pending.empty() && c->unsent() == 0;
    if (drained && (c->close_after_flush || c->peer_closed)) {
      CloseConn(s, c->id);
      return;
    }
    uint32_t want = c->unsent() > 0 ? uint32_t{EPOLLOUT} : uint32_t{0};
    if (!c->close_after_flush && !c->peer_closed) want |= EPOLLIN;
    if (want != c->armed) {
      epoll_event ev{};
      ev.events = want;
      ev.data.u64 = c->id;
      ::epoll_ctl(s->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
      c->armed = want;
    }
  }

  void CloseConn(Shard* s, uint64_t id) {
    auto it = s->conns.find(id);
    if (it == s->conns.end()) return;
    ::epoll_ctl(s->epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    s->conns.erase(it);
    closed.fetch_add(1, std::memory_order_relaxed);
  }
};

NetServer::NetServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
NetServer::~NetServer() { Stop(); }

Result<std::unique_ptr<NetServer>> NetServer::Start(SnapshotStore* store,
                                                    NetServerOptions opts) {
  if (store == nullptr) {
    return Status::InvalidArgument("NetServer needs a snapshot store");
  }
  if (opts.num_shards == 0) opts.num_shards = ThreadPool::HardwareThreads();
  if (opts.max_frame_bytes > kMaxFramePayload) {
    opts.max_frame_bytes = kMaxFramePayload;
  }
  auto impl = std::make_unique<NetServer::Impl>();
  impl->store = store;
  impl->opts = opts;

  for (size_t i = 0; i < opts.num_shards; ++i) {
    auto shard = std::make_unique<Impl::Shard>();
    shard->owner = impl.get();
    shard->index = i;
    impl->shards.push_back(std::move(shard));
  }

  // Listeners. In SO_REUSEPORT mode every shard binds the same port and
  // the kernel routes connections; in router mode only shard 0 listens.
  // Shard 0 binds first so an ephemeral port request (port 0) resolves
  // to a concrete port the siblings can join.
  const bool multi = opts.num_shards > 1;
  const bool reuseport = opts.use_reuseport && multi;
  {
    FGQ_ASSIGN_OR_RETURN(
        int fd, OpenListener(opts.host, opts.port, opts.use_reuseport));
    FGQ_ASSIGN_OR_RETURN(impl->port, BoundPort(fd));
    impl->shards[0]->listen_fd = fd;
  }
  if (reuseport) {
    for (size_t i = 1; i < opts.num_shards; ++i) {
      FGQ_ASSIGN_OR_RETURN(
          int fd, OpenListener(opts.host, impl->port, /*reuseport=*/true));
      impl->shards[i]->listen_fd = fd;
    }
  }

  for (auto& s : impl->shards) {
    s->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (s->epoll_fd < 0) return Errno("epoll_create1");
    s->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (s->wake_fd < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(s->epoll_fd, EPOLL_CTL_ADD, s->wake_fd, &ev) < 0) {
      return Errno("epoll_ctl(wake)");
    }
    if (s->listen_fd >= 0) {
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTag;
      if (::epoll_ctl(s->epoll_fd, EPOLL_CTL_ADD, s->listen_fd, &ev) < 0) {
        return Errno("epoll_ctl(listen)");
      }
    }
    s->service = std::make_unique<QueryService>(store, opts.service);
    s->flushes = &s->service->metrics().GetCounter("net.flushes");
    s->flushed_frames = &s->service->metrics().GetCounter("net.flushed_frames");
  }
  // Threads last: everything a shard touches exists before it runs.
  for (auto& s : impl->shards) {
    Impl* raw = impl.get();
    Impl::Shard* sp = s.get();
    s->thread = std::thread([raw, sp] { raw->ShardLoop(sp); });
  }
  return std::unique_ptr<NetServer>(new NetServer(std::move(impl)));
}

uint16_t NetServer::port() const { return impl_->port; }
size_t NetServer::num_shards() const { return impl_->shards.size(); }
void NetServer::Stop() { impl_->StopAll(); }

NetServerStats NetServer::stats() const {
  NetServerStats st;
  st.connections_accepted = impl_->accepted.load(std::memory_order_relaxed);
  st.connections_closed = impl_->closed.load(std::memory_order_relaxed);
  st.requests = impl_->requests.load(std::memory_order_relaxed);
  st.responses = impl_->responses.load(std::memory_order_relaxed);
  st.protocol_errors = impl_->protocol_errors.load(std::memory_order_relaxed);
  st.parse_errors = impl_->parse_errors.load(std::memory_order_relaxed);
  st.rejected = impl_->rejected.load(std::memory_order_relaxed);
  return st;
}

std::string NetServer::StatsDump() const {
  const NetServerStats st = stats();
  std::string out;
  out += "net accepted=" + std::to_string(st.connections_accepted) +
         " closed=" + std::to_string(st.connections_closed) +
         " requests=" + std::to_string(st.requests) +
         " responses=" + std::to_string(st.responses) +
         " protocol_errors=" + std::to_string(st.protocol_errors) +
         " parse_errors=" + std::to_string(st.parse_errors) +
         " rejected=" + std::to_string(st.rejected) + "\n";
  for (size_t i = 0; i < impl_->shards.size(); ++i) {
    out += "--- shard " + std::to_string(i) + " ---\n";
    out += impl_->shards[i]->service->StatsDump();
  }
  return out;
}

}  // namespace net
}  // namespace fgq

#else  // !__linux__

namespace fgq {
namespace net {

struct NetServer::Impl {};

NetServer::NetServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
NetServer::~NetServer() = default;

Result<std::unique_ptr<NetServer>> NetServer::Start(SnapshotStore*,
                                                    NetServerOptions) {
  return Status::Unsupported("fgq::net requires Linux (epoll/eventfd)");
}

uint16_t NetServer::port() const { return 0; }
size_t NetServer::num_shards() const { return 0; }
void NetServer::Stop() {}
NetServerStats NetServer::stats() const { return NetServerStats{}; }
std::string NetServer::StatsDump() const { return std::string(); }

}  // namespace net
}  // namespace fgq

#endif  // __linux__
