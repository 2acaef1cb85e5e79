#include "fgq/serve/query_service.h"

#include <algorithm>
#include <utility>

#include "fgq/count/acq_count.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

namespace fgq {

namespace {

double ToMicros(std::chrono::nanoseconds d) {
  return static_cast<double>(d.count()) / 1000.0;
}

/// The count verb on a cached entry, for both plan shapes: the entry's
/// memo for `id`, or the aggregate computed once — the VM fold over a
/// program, a fold of materialized answers — and memoized. A
/// cancelled or failed computation stores nothing, so the next request
/// on the entry computes it again. Two requests that miss the memo at
/// once both compute; the aggregate is the same value either way.
Result<SemiringValue> CountOnEntry(const CachedPlan& plan,
                                   const ConjunctiveQuery& q, SemiringId id,
                                   const CancelToken& cancel,
                                   TraceContext* trace) {
  if (!IsValidSemiringId(static_cast<uint8_t>(id))) {
    return Status::InvalidArgument("unknown semiring id");
  }
  std::optional<SemiringValue>& slot = plan.memo[static_cast<size_t>(id)];
  {
    std::lock_guard<std::mutex> lock(plan.memo_mu);
    if (slot) return *slot;
  }
  Result<SemiringValue> v =
      plan.program ? vm::RunSemiring(*plan.program, id, cancel, trace)
                   : FoldAnswersSemiring(q, *plan.answers, id);
  if (v.ok()) {
    std::lock_guard<std::mutex> lock(plan.memo_mu);
    if (!slot) slot = v.value();
  }
  return v;
}

/// True when answering `req` from `plan` is bounded work (see
/// query_service.h); such a hit is answered on the submitting thread.
bool IsBoundedHit(const CachedPlan& plan, const ServiceRequest& req) {
  if (req.verb == ServeVerb::kCount) {
    // O(1) once the semiring's aggregate is memoized; computing it folds
    // every node of the program, which is a worker's job.
    if (!IsValidSemiringId(static_cast<uint8_t>(req.semiring))) return false;
    std::lock_guard<std::mutex> lock(plan.memo_mu);
    return plan.memo[static_cast<size_t>(req.semiring)].has_value();
  }
  // Materialized answers: the shared relation, or a prefix of `limit` rows.
  if (!plan.program) return true;
  // A cursor at constant delay: one answer at most for a Boolean query,
  // `limit` answers otherwise.
  return req.query.arity() == 0 ||
         (req.limit > 0 && req.limit <= kInlineRowLimit);
}

/// The `serve.request` span's args; a no-op on an untraced request.
void AnnotateRequestSpan(TraceSpan* span, const ServiceRequest& req,
                         const ServiceResponse& resp) {
  if (req.trace == nullptr) return;
  span->Arg("class", QueryClassName(resp.classification));
  span->Arg("verb", req.verb == ServeVerb::kRows ? "rows" : "count");
  span->Arg("epoch", std::to_string(resp.epoch));
  if (req.verb == ServeVerb::kCount && req.semiring != SemiringId::kCounting) {
    span->Arg("semiring", SemiringName(req.semiring));
  }
  if (resp.cache_hit) span->Arg("cache", "hit");
}

}  // namespace

bool QueryService::IsHeavy(QueryClass c) {
  // The oracle-backed classes: worst-case exponential backtracking. The
  // light lane keeps the O(||D||)-preprocessing classes flowing past them.
  return c == QueryClass::kCyclic || c == QueryClass::kNegated ||
         c == QueryClass::kAcyclicOrderComparisons;
}

void QueryService::Resolve(Pending& p, ServiceResponse resp) {
  // The future first, the hook second: a hook that signals an event loop
  // must find the future already ready when the loop polls it.
  auto on_done = std::move(p.req.on_done);
  if (on_done) {
    ServiceResponse copy = resp;
    p.promise.set_value(std::move(resp));
    on_done(copy);
  } else {
    p.promise.set_value(std::move(resp));
  }
}

QueryService::QueryService(SnapshotStore* store, ServiceOptions opts)
    : store_(store),
      opts_(opts),
      engine_(opts.exec),
      cache_(opts.cache_capacity),
      requests_(metrics_.GetCounter("serve.requests")),
      rejected_(metrics_.GetCounter("serve.rejected")),
      pins_(metrics_.GetCounter("serve.snapshot.pins")),
      hits_(metrics_.GetCounter("serve.cache.hits")),
      inline_hits_(metrics_.GetCounter("serve.inline_hits")),
      misses_(metrics_.GetCounter("serve.cache.misses")),
      compiled_(metrics_.GetCounter("serve.vm.compiled")),
      deadline_exceeded_(metrics_.GetCounter("serve.deadline_exceeded")),
      cancelled_(metrics_.GetCounter("serve.cancelled")),
      queue_wait_us_(metrics_.GetHistogram("serve.queue_wait_us",
                                           Histogram::LatencyBounds())),
      exec_us_(metrics_.GetHistogram("serve.exec_us",
                                     Histogram::LatencyBounds())) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    requests_by_class_[c] = &metrics_.GetCounter(
        std::string("serve.requests.") +
        QueryClassName(static_cast<QueryClass>(c)));
  }
  if (opts_.num_workers == 0) opts_.num_workers = 1;
  if (opts_.max_pending == 0) opts_.max_pending = 1;
  if (opts_.max_concurrent_heavy == 0) {
    opts_.max_concurrent_heavy = std::max<size_t>(1, opts_.num_workers / 2);
  }
  opts_.max_concurrent_heavy =
      std::min(opts_.max_concurrent_heavy, opts_.num_workers);
  workers_.reserve(opts_.num_workers);
  for (size_t i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Stop(); }

std::future<ServiceResponse> QueryService::Submit(ServiceRequest req,
                                                  SubmitPolicy policy) {
  auto p = std::make_unique<Pending>();
  p->cancel = req.timeout.count() > 0 ? CancelToken::WithTimeout(req.timeout)
                                      : CancelToken::Cancellable();
  p->enqueued = std::chrono::steady_clock::now();
  p->req = std::move(req);
  std::future<ServiceResponse> fut = p->promise.get_future();
  if (TryAnswerInline(*p)) return fut;

  Status reject;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (policy.on_full == SubmitPolicy::OnFull::kBlock) {
      auto have_space = [this] {
        return stopping_ || light_.size() + heavy_.size() < opts_.max_pending;
      };
      if (policy.max_wait.count() > 0) {
        space_cv_.wait_for(lock, policy.max_wait, have_space);
      } else {
        space_cv_.wait(lock, have_space);
      }
    }
    if (stopping_) {
      reject = Status::Cancelled("service is stopping");
    } else if (light_.size() + heavy_.size() >= opts_.max_pending) {
      reject = Status::ResourceExhausted(
          "request queue full (" + std::to_string(opts_.max_pending) +
          " pending)");
    } else {
      p->seq = next_seq_++;
      requests_.Increment();
      requests_by_class_[static_cast<size_t>(p->classification)]->Increment();
      (IsHeavy(p->classification) ? heavy_ : light_).push_back(std::move(p));
      work_cv_.notify_one();
      return fut;
    }
  }
  rejected_.Increment();
  ServiceResponse resp;
  resp.status = std::move(reject);
  resp.classification = p->classification;
  Resolve(*p, std::move(resp));
  return fut;
}

bool QueryService::TryAnswerInline(Pending& p) {
  const auto started = std::chrono::steady_clock::now();
  const std::shared_ptr<const Snapshot> snap = store_->Current();
  p.key = MakePlanKey(p.req.query, *snap);
  p.key_epoch = snap->epoch();
  const PlanKey& key = p.key;
  const std::shared_ptr<const CachedPlan> plan = cache_.Peek(key);
  p.classification =
      plan ? plan->classification : Engine::Classify(p.req.query);
  // The queued path reports a stopped service and an expired deadline;
  // Touch fails only if the entry left the cache since the Peek.
  if (plan == nullptr || !IsBoundedHit(*plan, p.req) ||
      stopping_.load(std::memory_order_acquire) || p.cancel.cancelled() ||
      !cache_.Touch(key)) {
    return false;
  }
  requests_.Increment();
  requests_by_class_[static_cast<size_t>(p.classification)]->Increment();
  pins_.Increment();
  hits_.Increment();
  inline_hits_.Increment();
  ServiceResponse resp;
  resp.classification = p.classification;
  resp.epoch = snap->epoch();
  resp.cache_hit = true;
  {
    TraceSpan request_span(p.req.trace, "serve.request", "serve");
    AnnotateRequestSpan(&request_span, p.req, resp);
    AnswerFromEntry(p, plan.get(), started, &resp);
  }
  Resolve(p, std::move(resp));
  return true;
}

void QueryService::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& p : light_) p->cancel.Cancel();
  for (auto& p : heavy_) p->cancel.Cancel();
  for (CancelToken& t : running_) t.Cancel();
}

void QueryService::Stop() {
  // Serialize the whole shutdown sequence: without stop_mu_, a second
  // concurrent Stop() (e.g. an explicit Stop() racing the destructor)
  // passes the guard below while the first caller is still joining, and
  // both then walk workers_ outside mu_ — a double join. The late caller
  // blocks here until the first finishes, then sees workers_ empty.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    for (auto& p : light_) orphans.push_back(std::move(p));
    for (auto& p : heavy_) orphans.push_back(std::move(p));
    light_.clear();
    heavy_.clear();
    // In-flight requests are cancelled, not abandoned: the workers see
    // the trip at the next check and resolve their promises normally.
    for (CancelToken& t : running_) t.Cancel();
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& p : orphans) {
    ServiceResponse resp;
    resp.status = Status::Cancelled("service stopped before execution");
    resp.classification = p->classification;
    Resolve(*p, std::move(resp));
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Pending> p;
    bool heavy = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || !light_.empty() ||
               (!heavy_.empty() && heavy_running_ < opts_.max_concurrent_heavy);
      });
      if (stopping_) return;
      // Pick the oldest admissible request across the lanes; the heavy
      // lane is admissible only below its concurrency cap.
      bool heavy_ok =
          !heavy_.empty() && heavy_running_ < opts_.max_concurrent_heavy;
      if (!light_.empty() &&
          (!heavy_ok || light_.front()->seq < heavy_.front()->seq)) {
        p = std::move(light_.front());
        light_.pop_front();
      } else if (heavy_ok) {
        p = std::move(heavy_.front());
        heavy_.pop_front();
        heavy = true;
        ++heavy_running_;
      } else {
        continue;  // Spurious wake with only capped heavy work.
      }
      running_.push_back(p->cancel);
    }
    space_cv_.notify_one();

    ServiceResponse resp = Process(*p);
    Resolve(*p, std::move(resp));

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (heavy) --heavy_running_;
      for (size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].SameStateAs(p->cancel)) {
          running_.erase(running_.begin() + static_cast<long>(i));
          break;
        }
      }
    }
    if (heavy) work_cv_.notify_one();  // A heavy slot opened up.
  }
}

ServiceResponse QueryService::Process(Pending& p) {
  const auto started = std::chrono::steady_clock::now();
  ServiceResponse resp;
  resp.classification = p.classification;
  resp.queue_wait = started - p.enqueued;
  queue_wait_us_.Observe(ToMicros(resp.queue_wait));

  TraceSpan request_span(p.req.trace, "serve.request", "serve");
  // Pin the current epoch once, up front. Everything the request does —
  // cache keying, preparation, cursor enumeration — reads this one
  // immutable view, so a mutation applied mid-request can never produce
  // a torn answer.
  std::shared_ptr<const Snapshot> snap;
  {
    TraceSpan pin_span(p.req.trace, "serve.snapshot_pin", "serve");
    snap = store_->Current();
  }
  resp.epoch = snap->epoch();
  pins_.Increment();

  // The key carries per-relation epochs — selective invalidation. It
  // carries no verb or semiring: every request for the query at this
  // data state shares one entry. The inline probe's key stands when no
  // mutation landed since it was built.
  const PlanKey key = p.key_epoch == snap->epoch()
                          ? std::move(p.key)
                          : MakePlanKey(p.req.query, *snap);
  std::shared_ptr<const CachedPlan> cached;
  // A request whose deadline expired while queued fails fast.
  Status admitted = p.cancel.Check("queue wait");
  if (!admitted.ok()) {
    resp.status = std::move(admitted);
  } else {
    cached = cache_.Get(key);
    if (cached) {
      hits_.Increment();
      resp.cache_hit = true;
    } else {
      misses_.Increment();
      cached = Prepare(p, snap->db(), &resp);
      if (cached && resp.status.ok()) cache_.Put(key, cached);
    }
  }
  AnnotateRequestSpan(&request_span, p.req, resp);
  AnswerFromEntry(p, cached.get(), started, &resp);
  return resp;
}

void QueryService::AnswerFromEntry(
    Pending& p, const CachedPlan* cached,
    std::chrono::steady_clock::time_point started, ServiceResponse* response) {
  ServiceResponse& resp = *response;
  if (resp.status.ok() && cached) {
    resp.algorithm = cached->algorithm;
    if (cached->answers && resp.cache_hit) {
      // Materialized answers still count as emitted to *this* request, so
      // a traced cache hit reads the same as a traced miss (whose emits
      // were already counted by the engine inside Prepare).
      TraceCounter(p.req.trace, "tuples_emitted",
                   cached->answers->NumTuples());
    }
    if (p.req.verb == ServeVerb::kCount) {
      Result<SemiringValue> v = CountOnEntry(*cached, p.req.query,
                                             p.req.semiring, p.cancel,
                                             p.req.trace);
      if (!v.ok()) {
        resp.status = v.status();
      } else {
        resp.semiring_value = std::move(v).value();
        if (p.req.semiring == SemiringId::kCounting) {
          resp.count = resp.semiring_value.count;
        }
      }
    } else if (cached->program) {
      // Serve from the shared preparation: a fresh VM cursor per request.
      TraceSpan enumerate_span(p.req.trace, "enumerate", "serve");
      std::unique_ptr<AnswerEnumerator> cursor =
          vm::MakeProgramCursor(cached->program, p.req.trace);
      // The answers go straight into plain columns that the response
      // relation then adopts: no per-answer ownership check.
      const size_t arity = p.req.query.arity();
      std::vector<Relation::ColumnVec> cols(arity);
      size_t rows = 0;
      Tuple t;
      while ((p.req.limit == 0 || rows < p.req.limit) && cursor->Next(&t)) {
        for (size_t c = 0; c < arity; ++c) cols[c].push_back(t[c]);
        ++rows;
        if (p.cancel.cancelled()) break;
      }
      auto out = std::make_shared<Relation>(
          Relation::FromColumns(p.req.query.name(), std::move(cols)));
      if (arity == 0 && rows > 0) out->AddNullary();
      if (p.cancel.cancelled()) {
        Status base = p.cancel.Check("answer enumeration");
        resp.status = Status(
            base.code(), base.message() + " (" +
                             std::to_string(out->NumTuples()) +
                             " answers enumerated)");
      } else {
        TraceCounter(p.req.trace, "tuples_emitted", out->NumTuples());
        resp.answers = std::move(out);
      }
    } else if (p.req.limit != 0 &&
               p.req.limit < cached->answers->NumTuples()) {
      // Truncated view of the shared materialized answers.
      auto prefix = std::make_shared<Relation>(cached->answers->name(),
                                               cached->answers->arity());
      if (cached->answers->arity() == 0) {
        for (uint64_t i = 0; i < p.req.limit; ++i) prefix->AddNullary();
      } else {
        prefix->AppendPrefixFrom(*cached->answers, p.req.limit);
      }
      resp.answers = std::move(prefix);
    } else {
      resp.answers = cached->answers;
    }
  }

  if (resp.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.Increment();
  } else if (resp.status.code() == StatusCode::kCancelled) {
    cancelled_.Increment();
  }
  resp.exec_time = std::chrono::steady_clock::now() - started;
  exec_us_.Observe(ToMicros(resp.exec_time));
  if (p.req.trace != nullptr) {
    // Per-phase attribution: completed evaluation spans of this request
    // become serve.phase.<name>_us observations, so the \stats dump shows
    // where traced requests spent their time (index build vs sweeps vs
    // enumeration), not just end-to-end exec_us.
    for (const TraceContext::Event& ev : p.req.trace->events()) {
      if (ev.end_ns < 0 || ev.name == "serve.request") continue;
      metrics_
          .GetHistogram("serve.phase." + ev.name + "_us",
                        Histogram::LatencyBounds())
          .Observe(static_cast<double>(ev.DurationNs()) / 1000.0);
    }
  }
}

std::shared_ptr<const CachedPlan> QueryService::Prepare(Pending& p,
                                                        const Database& db,
                                                        ServiceResponse* out) {
  auto plan = std::make_shared<CachedPlan>();
  plan->classification = p.classification;
  if (p.classification == QueryClass::kBooleanAcyclic ||
      p.classification == QueryClass::kFreeConnexAcyclic) {
    // Cache the Theorem 4.6 preprocessing, lowered to a VM program; the
    // enumeration phase runs per request against the shared indexes.
    ExecContext ctx =
        engine_.context().WithCancel(p.cancel).WithTrace(p.req.trace);
    Result<std::shared_ptr<const vm::Program>> program =
        vm::CompileFreeConnex(p.req.query, db, ctx);
    if (!program.ok()) {
      out->status = program.status();
      return nullptr;
    }
    plan->program = std::move(program).value();
    plan->algorithm = plan->program->algorithm;
    compiled_.Increment();
    return plan;
  }
  // Every other class: evaluate once, cache the materialized answers (they
  // serve both verbs; general-acyclic counts equal the answer count).
  ExecRequest exec(p.req.query, db);
  exec.cancel = p.cancel;
  exec.trace = p.req.trace;
  Result<ExecResult> res = engine_.Run(exec);
  if (!res.ok()) {
    out->status = res.status();
    return nullptr;
  }
  plan->algorithm = res->algorithm;
  plan->answers = std::make_shared<const Relation>(std::move(res->answers));
  return plan;
}

std::string QueryService::StatsDump() {
  std::string out = metrics_.TextDump();
  out += "cache size=" + std::to_string(cache_.size()) +
         " capacity=" + std::to_string(cache_.capacity()) +
         " hits=" + std::to_string(cache_.hits()) +
         " misses=" + std::to_string(cache_.misses()) + "\n";
  return out;
}

}  // namespace fgq
