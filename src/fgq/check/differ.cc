#include "fgq/check/differ.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "fgq/check/reference.h"
#include "fgq/count/acq_count.h"
#include "fgq/count/semiring.h"
#include "fgq/db/index.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/ucq_enum.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/net/client.h"
#include "fgq/net/server.h"
#include "fgq/serve/query_service.h"
#include "fgq/util/hash.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

namespace fgq {

namespace {

/// Canonical form for comparison: sorted, deduplicated; arity-0 relations
/// normalize their marker count to 0/1 (set semantics — the reference may
/// have recorded one marker per satisfying assignment).
Relation Canon(const Relation& r) {
  Relation out(r.name(), r.arity());
  if (r.arity() == 0) {
    if (r.NumTuples() > 0) out.AddNullary();
    return out;
  }
  out.AppendFrom(r);
  out.SortDedup();
  return out;
}

bool SameAnswers(const Relation& canon_a, const Relation& canon_b) {
  if (canon_a.arity() != canon_b.arity()) return false;
  if (canon_a.arity() == 0) {
    return (canon_a.NumTuples() > 0) == (canon_b.NumTuples() > 0);
  }
  return canon_a.NumTuples() == canon_b.NumTuples() &&
         canon_a.ToRowMajor() == canon_b.ToRowMajor();
}

std::string DescribeDiff(const std::string& path, const Relation& expected,
                         const Relation& actual) {
  std::string msg = path + ": expected " +
                    std::to_string(expected.NumTuples()) + " answers, got " +
                    std::to_string(actual.NumTuples());
  if (expected.NumTuples() <= 24 && actual.NumTuples() <= 24) {
    msg += "\n  expected: " + expected.ToString(24) +
           "\n  actual:   " + actual.ToString(24);
  }
  return msg;
}

/// Collects mismatches for one fixed case.
class CaseDiffer {
 public:
  CaseDiffer(const Database& db, const FuzzOptions& opt,
             std::vector<std::string>* out)
      : db_(db), opt_(opt), out_(out) {}

  size_t paths_run() const { return paths_run_; }

  void Check(const std::string& path, const Relation& reference,
             const Result<Relation>& actual) {
    ++paths_run_;
    if (!actual.ok()) {
      out_->push_back(path + ": failed where the reference succeeded: " +
                      actual.status().ToString());
      return;
    }
    Relation canon = Canon(actual.value());
    if (!SameAnswers(reference, canon)) {
      out_->push_back(DescribeDiff(path, reference, canon));
    }
  }

  /// Drains an enumerator with a budget and a repetition check.
  Result<Relation> Drain(AnswerEnumerator* e, size_t arity,
                         size_t reference_count, const std::string& path) {
    Relation out("drained", arity);
    std::unordered_set<Tuple, VecHash> seen;
    const size_t budget = 4 * reference_count + 64;
    Tuple t;
    size_t produced = 0;
    while (e->Next(&t)) {
      if (++produced > budget) {
        return Status::Internal(path + ": enumerator exceeded " +
                                std::to_string(budget) +
                                " answers (runaway or cyclic stream)");
      }
      if (!seen.insert(t).second) {
        return Status::Internal(path + ": repeated answer (violates the "
                                       "no-repetition contract)");
      }
      if (arity == 0) {
        out.AddNullary();
      } else {
        out.Add(t);
      }
    }
    return out;
  }

  void CheckEnumerator(const std::string& path, const Relation& reference,
                       Result<std::unique_ptr<AnswerEnumerator>> e) {
    ++paths_run_;
    if (!e.ok()) {
      out_->push_back(path + ": factory failed where the reference "
                             "succeeded: " + e.status().ToString());
      return;
    }
    Result<Relation> drained =
        Drain(e.value().get(), reference.arity(), reference.NumTuples(), path);
    if (!drained.ok()) {
      out_->push_back(drained.status().message());
      return;
    }
    Relation canon = Canon(drained.value());
    if (!SameAnswers(reference, canon)) {
      out_->push_back(DescribeDiff(path, reference, canon));
    }
  }

  /// All single-CQ paths.
  void DiffConjunctive(const ConjunctiveQuery& q, const Relation& reference) {
    const QueryClass cls = Engine::Classify(q);

    Engine serial{ExecOptions::Serial()};
    {
      Result<ExecResult> r = serial.Run(ExecRequest(q, db_));
      Check("engine-serial", reference,
            r.ok() ? Result<Relation>(r.value().answers)
                   : Result<Relation>(r.status()));
    }
    {
      Engine parallel{ExecOptions::Parallel(opt_.parallel_threads)};
      Result<ExecResult> r = parallel.Run(ExecRequest(q, db_));
      Check("engine-parallel", reference,
            r.ok() ? Result<Relation>(r.value().answers)
                   : Result<Relation>(r.status()));
    }
    {
      ++paths_run_;
      Result<BigInt> c = serial.Count(q, db_);
      const BigInt want = BigInt::FromUint64(
          reference.arity() == 0 ? (reference.NumTuples() > 0 ? 1 : 0)
                                 : reference.NumTuples());
      if (!c.ok()) {
        out_->push_back("engine-count: failed where the reference "
                        "succeeded: " + c.status().ToString());
      } else if (c.value() != want) {
        out_->push_back("engine-count: expected " + want.ToString() +
                        ", got " + c.value().ToString());
      }
    }
    CheckEnumerator("engine-enumerate", reference, serial.Enumerate(q, db_));
    if (!q.HasNegation() && q.comparisons().empty() && IsAcyclicQuery(q)) {
      CheckEnumerator("enum-linear-delay", reference,
                      MakeLinearDelayEnumerator(q, db_));
    }
    if (cls == QueryClass::kBooleanAcyclic ||
        cls == QueryClass::kFreeConnexAcyclic) {
      CheckEnumerator("enum-constant-delay", reference,
                      MakeConstantDelayEnumerator(q, db_));
      DiffVm(q, cls, serial, reference);
    }
    if (opt_.include_semiring) DiffSemiring(q, reference);
    if (opt_.include_service) DiffService(q, reference);
    if (opt_.include_net) DiffNet(q, reference);
    if (opt_.include_mutation) DiffMutation(q);
  }

  /// The raw fgq::vm program of a Boolean or free-connex query. The
  /// engine paths above already run its cursor; here the class must
  /// compile, and the counting fold over the program's indexes
  /// (vm::RunSemiring, which no cursor executes) must match the
  /// reference.
  void DiffVm(const ConjunctiveQuery& q, QueryClass cls, const Engine& serial,
              const Relation& reference) {
    Result<vm::Compilation> comp =
        vm::CompileQuery(q, db_, serial.context());
    if (!comp.ok()) {
      out_->push_back("vm-compile: " + comp.status().ToString());
      return;
    }
    if (!comp.value().ok()) {
      out_->push_back(std::string("vm-compile: ") + QueryClassName(cls) +
                      " query did not compile: " +
                      comp.value().fallback_reason);
      return;
    }
    ++paths_run_;
    Result<SemiringValue> n = vm::RunSemiring(
        *comp.value().program, SemiringId::kCounting, CancelToken(), nullptr);
    const uint64_t want =
        reference.arity() == 0 ? (reference.NumTuples() > 0 ? 1 : 0)
                               : reference.NumTuples();
    if (!n.ok()) {
      out_->push_back("vm-raw-count: " + n.status().ToString());
    } else if (n.value().count != BigInt::FromUint64(want)) {
      out_->push_back("vm-raw-count: expected " + std::to_string(want) +
                      ", got " + n.value().count.ToString());
    }
  }

  /// The semiring paths: the same query aggregated under every
  /// SemiringId. The reference aggregate folds the brute-force answer set
  /// directly (FoldAnswersSemiring — the semantics contract stated in
  /// src/fgq/count/semiring.h), which is independent of the compiled
  /// fold; Engine::SumProduct is then diffed against it, and so is the
  /// fold's own entry (SemiringSumAcq) on every plain acyclic case.
  /// Cross-semiring invariants tie the instances to each other through
  /// different FoldRows instantiations, and the count verb runs through
  /// the service under every semiring twice: all ten requests share the
  /// query's one plan-cache entry, so each semiring's memo slot is read
  /// back after it is filled, and no semiring may answer with another
  /// one's aggregate.
  void DiffSemiring(const ConjunctiveQuery& q, const Relation& reference) {
    Engine serial{ExecOptions::Serial()};
    SemiringValue want[kNumSemirings];
    for (size_t i = 0; i < kNumSemirings; ++i) {
      const SemiringId id = static_cast<SemiringId>(i);
      Result<SemiringValue> w = FoldAnswersSemiring(q, reference, id);
      if (!w.ok()) {
        out_->push_back(std::string("semiring-reference-") + SemiringName(id) +
                        ": " + w.status().ToString());
        return;
      }
      want[i] = std::move(w.value());
    }

    // Invariants the algebra promises regardless of the query: every
    // instance agrees with Boolean on answer existence, and top-k's best
    // cost is exactly the min-plus aggregate.
    ++paths_run_;
    const bool nonempty = reference.NumTuples() > 0;
    for (size_t i = 0; i < kNumSemirings; ++i) {
      if (want[i].Truthy() != nonempty) {
        out_->push_back(std::string("semiring-invariant: ") +
                        SemiringName(static_cast<SemiringId>(i)) +
                        " Truthy() disagrees with answer existence");
      }
    }
    const SemiringValue& tk = want[static_cast<size_t>(SemiringId::kTopK)];
    const SemiringValue& mp = want[static_cast<size_t>(SemiringId::kMinPlus)];
    if (!tk.topk.empty() && tk.topk.front() != mp.scalar) {
      out_->push_back("semiring-invariant: topk best " +
                      std::to_string(tk.topk.front()) +
                      " != minplus aggregate " + std::to_string(mp.scalar));
    }

    auto check = [&](const std::string& path, size_t i,
                     const Result<SemiringValue>& got) {
      ++paths_run_;
      if (!got.ok()) {
        out_->push_back(path + ": failed where the reference succeeded: " +
                        got.status().ToString());
      } else if (got.value() != want[i]) {
        out_->push_back(path + ": expected " + want[i].ToString() +
                        ", got " + got.value().ToString());
      }
    };
    const bool plain_acyclic =
        !q.HasNegation() && q.comparisons().empty() && IsAcyclicQuery(q);
    for (size_t i = 0; i < kNumSemirings; ++i) {
      const SemiringId id = static_cast<SemiringId>(i);
      ExecRequest req(q, db_);
      req.semiring = id;
      check(std::string("sum-product-") + SemiringName(id), i,
            serial.SumProduct(req));
      if (plain_acyclic) {
        check(std::string("semiring-dp-") + SemiringName(id), i,
              SemiringSumAcq(q, db_, id));
      }
    }

    if (!opt_.include_service) return;
    SnapshotStore store(db_);
    ServiceOptions sopts;
    sopts.num_workers = 2;
    QueryService service(&store, sopts);
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < kNumSemirings; ++i) {
        ++paths_run_;
        // Only the query's first request prepares the entry.
        const bool want_hit = round > 0 || i > 0;
        const SemiringId id = static_cast<SemiringId>(i);
        ServiceRequest req;
        req.query = q;
        req.verb = ServeVerb::kCount;
        req.semiring = id;
        ServiceResponse resp = service.Submit(std::move(req)).get();
        const std::string path = std::string("serve-semiring-") +
                                 SemiringName(id) +
                                 (round > 0 ? "-hit" : "-cold");
        if (!resp.status.ok()) {
          out_->push_back(path + ": failed where the reference succeeded: " +
                          resp.status.ToString());
          continue;
        }
        if (resp.cache_hit != want_hit) {
          out_->push_back(path + ": expected cache_hit=" +
                          (want_hit ? "true" : "false") + ", got " +
                          (resp.cache_hit ? "true" : "false") +
                          " (one entry per query and data state)");
        }
        if (resp.semiring_value != want[i]) {
          out_->push_back(path + ": expected " + want[i].ToString() +
                          ", got " + resp.semiring_value.ToString());
        }
      }
    }
    service.Stop();
  }

  /// The serving-layer paths: cold, cache hit, count verb, post-mutation.
  void DiffService(const ConjunctiveQuery& q, const Relation& reference) {
    SnapshotStore store(db_);  // Own copy: the mutation path bumps epochs.
    ServiceOptions sopts;
    sopts.num_workers = 2;
    QueryService service(&store, sopts);

    auto rows = [&](const std::string& path, bool want_cache_hit) {
      ++paths_run_;
      ServiceRequest req;
      req.query = q;
      req.verb = ServeVerb::kRows;
      ServiceResponse resp = service.Submit(std::move(req)).get();
      if (!resp.status.ok()) {
        out_->push_back(path + ": failed where the reference succeeded: " +
                        resp.status.ToString());
        return;
      }
      if (resp.cache_hit != want_cache_hit) {
        out_->push_back(path + ": expected cache_hit=" +
                        (want_cache_hit ? "true" : "false") + ", got " +
                        (resp.cache_hit ? "true" : "false"));
      }
      Relation canon = resp.answers ? Canon(*resp.answers)
                                    : Relation(q.name(), q.arity());
      if (!SameAnswers(reference, canon)) {
        out_->push_back(DescribeDiff(path, reference, canon));
      }
    };

    rows("serve-cold", /*want_cache_hit=*/false);
    rows("serve-cache-hit", /*want_cache_hit=*/true);
    {
      ++paths_run_;
      ServiceRequest req;
      req.query = q;
      req.verb = ServeVerb::kCount;
      ServiceResponse resp = service.Submit(std::move(req)).get();
      const BigInt want = BigInt::FromUint64(
          reference.arity() == 0 ? (reference.NumTuples() > 0 ? 1 : 0)
                                 : reference.NumTuples());
      if (!resp.status.ok()) {
        out_->push_back("serve-count: failed where the reference "
                        "succeeded: " + resp.status.ToString());
      } else if (resp.count != want) {
        out_->push_back("serve-count: expected " + want.ToString() +
                        ", got " + resp.count.ToString());
      }
    }
    // Touch a relation the query reads (an empty batch entry: contents
    // unchanged, epoch bumped) and verify the cached plan is NOT reused
    // and the fresh answers still match.
    auto touched = std::find_if(
        q.atoms().begin(), q.atoms().end(),
        [&](const Atom& a) { return db_.Has(a.relation); });
    if (touched != q.atoms().end()) {
      Result<uint64_t> epoch =
          store.Apply({RelationMutation{touched->relation, {}, {}}});
      if (epoch.ok()) {
        rows("serve-post-mutation", /*want_cache_hit=*/false);
      } else {
        out_->push_back("serve-post-mutation: " + epoch.status().ToString());
      }
    }
    service.Stop();
  }

  /// The fgq::net loopback paths: the same query through a real socket
  /// server (wire encode -> epoll shard -> QueryService -> wire decode),
  /// pipelined with a count, a limited enumeration, and a ping. This is
  /// the end-to-end guarantee behind BENCH_PR6: what the network serves
  /// is bit-identical to what the engine computes.
  void DiffNet(const ConjunctiveQuery& q, const Relation& reference) {
    net::NetServerOptions nopts;
    nopts.num_shards = 1;
    SnapshotStore store(db_);
    Result<std::unique_ptr<net::NetServer>> server =
        net::NetServer::Start(&store, nopts);
    if (!server.ok()) {
      // Unsupported = no epoll on this platform; a legitimate skip.
      if (server.status().code() != StatusCode::kUnsupported) {
        out_->push_back("net-start: " + server.status().ToString());
      }
      return;
    }
    Result<std::unique_ptr<net::Client>> client =
        net::Client::Connect("127.0.0.1", server.value()->port());
    if (!client.ok()) {
      out_->push_back("net-connect: " + client.status().ToString());
      return;
    }
    net::Client& conn = *client.value();
    const std::string text = q.ToString();

    // Pipeline all four requests before reading any response: exercises
    // frame reassembly and per-connection response ordering, not just
    // request/reply ping-pong.
    net::Request rows_req;
    rows_req.id = 1;
    rows_req.verb = net::Verb::kRows;
    rows_req.query = text;
    net::Request count_req;
    count_req.id = 2;
    count_req.verb = net::Verb::kCount;
    count_req.query = text;
    net::Request limit_req;
    limit_req.id = 3;
    limit_req.verb = net::Verb::kEnumerateLimit;
    limit_req.limit = 2;
    limit_req.query = text;
    net::Request sem_req;
    sem_req.id = 4;
    sem_req.verb = net::Verb::kCount;
    sem_req.query = text;
    sem_req.semiring = SemiringId::kMinPlus;
    net::Request ping_req;
    ping_req.id = 5;
    ping_req.verb = net::Verb::kPing;
    for (const net::Request* r :
         {&rows_req, &count_req, &limit_req, &sem_req, &ping_req}) {
      Status st = conn.Send(*r);
      if (!st.ok()) {
        out_->push_back("net-send: " + st.ToString());
        return;
      }
    }

    auto receive = [&](const net::Request& req,
                       const char* path) -> Result<net::Response> {
      ++paths_run_;
      Result<net::Response> resp = conn.Receive(req.verb);
      if (!resp.ok()) {
        out_->push_back(std::string(path) + ": " + resp.status().ToString());
        return resp;
      }
      if (resp.value().id != req.id) {
        out_->push_back(std::string(path) + ": response id " +
                        std::to_string(resp.value().id) +
                        " for request id " + std::to_string(req.id) +
                        " (ordering violated)");
        return Status::Internal("out of order");
      }
      if (!resp.value().ok()) {
        out_->push_back(std::string(path) +
                        ": failed where the reference succeeded: " +
                        resp.value().text);
        return Status::Internal("remote error");
      }
      return resp;
    };

    const BigInt want_count = BigInt::FromUint64(
        reference.arity() == 0 ? (reference.NumTuples() > 0 ? 1 : 0)
                               : reference.NumTuples());

    if (Result<net::Response> r = receive(rows_req, "net-rows"); r.ok()) {
      Relation got(q.name(), r.value().arity);
      if (r.value().arity == 0) {
        for (uint64_t i = 0; i < r.value().nrows; ++i) got.AddNullary();
      } else {
        got.AppendRows(r.value().values.data(), r.value().num_rows());
      }
      Relation canon = Canon(got);
      if (!SameAnswers(reference, canon)) {
        out_->push_back(DescribeDiff("net-rows", reference, canon));
      }
    }
    if (Result<net::Response> r = receive(count_req, "net-count"); r.ok()) {
      if (r.value().count != want_count.ToString()) {
        out_->push_back("net-count: expected " + want_count.ToString() +
                        ", got " + r.value().count);
      }
    }
    if (Result<net::Response> r = receive(limit_req, "net-limit"); r.ok()) {
      const net::Response& resp = r.value();
      if (resp.nrows > limit_req.limit) {
        out_->push_back("net-limit: asked for at most " +
                        std::to_string(limit_req.limit) + " answers, got " +
                        std::to_string(resp.nrows));
      } else if ((resp.nrows > 0) != (reference.NumTuples() > 0)) {
        out_->push_back(std::string("net-limit: ") +
                        (resp.nrows > 0 ? "answers for an empty query"
                                        : "no answers for a nonempty query"));
      } else if (resp.arity > 0) {
        // Every truncated answer must be a genuine answer.
        std::unordered_set<Tuple, VecHash> allowed;
        for (size_t i = 0; i < reference.NumTuples(); ++i) {
          allowed.insert(reference.Row(i).ToTuple());
        }
        for (size_t i = 0; i < resp.num_rows(); ++i) {
          Tuple t(resp.values.begin() + i * resp.arity,
                  resp.values.begin() + (i + 1) * resp.arity);
          if (allowed.count(t) == 0) {
            out_->push_back("net-limit: returned a tuple outside phi(D)");
            break;
          }
        }
      }
    }
    if (Result<net::Response> r = receive(sem_req, "net-semiring"); r.ok()) {
      // The wire carries the min-plus aggregate through the trailing
      // semiring byte; the body is the SemiringValue encoding.
      Result<SemiringValue> want =
          FoldAnswersSemiring(q, reference, SemiringId::kMinPlus);
      if (want.ok() && r.value().count != want.value().Encode()) {
        out_->push_back("net-semiring: expected " + want.value().Encode() +
                        ", got " + r.value().count);
      }
    }
    receive(ping_req, "net-ping");
    server.value()->Stop();
    const net::NetServerStats stats = server.value()->stats();
    if (stats.protocol_errors != 0) {
      out_->push_back("net: server counted " +
                      std::to_string(stats.protocol_errors) +
                      " protocol errors on a clean stream");
    }
  }

  /// The mutation paths: the same query served through a SnapshotStore
  /// across a sequence of insert/delete batches.
  ///
  /// Sequential phase — snapshot isolation: pin, compute the brute-force
  /// reference *at that snapshot*, query through the snapshot-backed
  /// service, require the response's epoch and answers to match exactly;
  /// apply the next batch; repeat. After every epoch the maintained
  /// hash indexes are diffed against fresh builds over the same relation
  /// (DeltaBuild lookup-equivalence).
  ///
  /// Concurrent phase — single-writer linearizability: replay the same
  /// batches from a writer thread while readers race Submit. Epochs are
  /// assigned deterministically (initial = 1, +1 per batch), so every
  /// response's reported epoch indexes the reference table built in the
  /// sequential phase; any torn read (a mix of two epochs) cannot equal
  /// any reference and is flagged.
  void DiffMutation(const ConjunctiveQuery& q) {
    // Batches are a pure function of the case text, not a fresh seed, so
    // a failing case still replays from (seed, cls, opt) alone.
    Rng rng(HashCombine(std::hash<std::string>()(q.ToString()),
                        0x6d75746174ULL));
    UnionQuery u;
    u.name = q.name();
    u.disjuncts.push_back(q);

    SnapshotStore store(db_);
    // Maintain a first-column index on every relation the query reads:
    // every Apply then exercises the incremental index path.
    std::set<std::string> maintained;
    for (const Atom& a : q.atoms()) {
      Result<const Relation*> rel = db_.Find(a.relation);
      if (!rel.ok() || rel.value()->arity() == 0) continue;
      if (!maintained.insert(a.relation).second) continue;
      Status st = store.MaintainIndex(a.relation, {0});
      if (!st.ok()) {
        out_->push_back("mutation-maintain: " + st.ToString());
        return;
      }
    }

    const size_t nbatches = std::max<size_t>(1, opt_.mutation_batches);
    std::vector<MutationBatch> batches;
    std::map<uint64_t, Relation> refs;  // epoch -> canonical reference

    ServiceOptions sopts;
    sopts.num_workers = 2;

    {
      QueryService service(&store, sopts);
      for (size_t b = 0;; ++b) {
        std::shared_ptr<const Snapshot> snap = store.Current();
        Result<Relation> ref =
            ReferenceEvaluate(q, snap->db(), opt_.reference_limit);
        if (!ref.ok()) {
          // Unsupported = assignment budget; anything else is a bug.
          if (ref.status().code() != StatusCode::kUnsupported) {
            out_->push_back("mutation-reference: " + ref.status().ToString());
          }
          return;
        }
        refs.emplace(snap->epoch(), Canon(ref.value()));

        ++paths_run_;
        ServiceRequest req;
        req.query = q;
        req.verb = ServeVerb::kRows;
        ServiceResponse resp = service.Submit(std::move(req)).get();
        if (!resp.status.ok()) {
          out_->push_back("mutation-seq: failed where the reference "
                          "succeeded: " + resp.status.ToString());
          return;
        }
        if (resp.epoch != snap->epoch()) {
          out_->push_back("mutation-seq: pinned epoch " +
                          std::to_string(resp.epoch) +
                          " with no writer active, expected " +
                          std::to_string(snap->epoch()));
          return;
        }
        Relation canon = resp.answers ? Canon(*resp.answers)
                                      : Relation(q.name(), q.arity());
        if (!SameAnswers(refs.at(resp.epoch), canon)) {
          out_->push_back(DescribeDiff(
              "mutation-seq@" + std::to_string(resp.epoch),
              refs.at(resp.epoch), canon));
        }
        CheckMaintainedIndexes(*snap, maintained);
        if (b == nbatches) break;

        MutationBatch batch = GenerateMutationBatch(u, snap->db(), opt_, &rng);
        Result<uint64_t> e = store.Apply(batch);
        if (!e.ok()) {
          out_->push_back("mutation-apply: " + e.status().ToString());
          return;
        }
        if (*e != snap->epoch() + 1) {
          out_->push_back("mutation-apply: epoch jumped from " +
                          std::to_string(snap->epoch()) + " to " +
                          std::to_string(*e));
          return;
        }
        batches.push_back(std::move(batch));
      }
      service.Stop();
    }

    // Concurrent phase. Same initial database, same batches, one writer:
    // epochs replay identically, so `refs` stays the oracle.
    SnapshotStore cstore(db_);
    for (const std::string& name : maintained) {
      (void)cstore.MaintainIndex(name, {0});
    }
    const uint64_t last_epoch = 1 + batches.size();
    QueryService cservice(&cstore, sopts);
    std::thread writer([&cstore, &batches] {
      for (const MutationBatch& batch : batches) (void)cstore.Apply(batch);
    });
    for (size_t i = 0; i < 2 * nbatches + 4; ++i) {
      ++paths_run_;
      ServiceRequest req;
      req.query = q;
      req.verb = ServeVerb::kRows;
      ServiceResponse resp = cservice.Submit(std::move(req)).get();
      if (!resp.status.ok()) {
        out_->push_back("mutation-concurrent: failed under a concurrent "
                        "writer: " + resp.status.ToString());
        break;
      }
      if (resp.epoch < 1 || resp.epoch > last_epoch) {
        out_->push_back("mutation-concurrent: reported epoch " +
                        std::to_string(resp.epoch) + " outside [1, " +
                        std::to_string(last_epoch) + "]");
        break;
      }
      Relation canon = resp.answers ? Canon(*resp.answers)
                                    : Relation(q.name(), q.arity());
      if (!SameAnswers(refs.at(resp.epoch), canon)) {
        out_->push_back(DescribeDiff(
            "mutation-concurrent@" + std::to_string(resp.epoch) +
                " (torn read: answers match no single epoch)",
            refs.at(resp.epoch), canon));
        break;
      }
    }
    writer.join();
    cservice.Stop();
  }

  /// Diffs every maintained index in `snap` against a fresh build over
  /// the same relation payload: identical row sets for every present key
  /// and for every probe value in the declared domain (misses included —
  /// deletion-emptied groups must probe as absent, not stale).
  void CheckMaintainedIndexes(const Snapshot& snap,
                              const std::set<std::string>& maintained) {
    for (const std::string& name : maintained) {
      ++paths_run_;
      std::shared_ptr<const HashIndex> idx = snap.MaintainedIndex(name, {0});
      if (idx == nullptr) {
        out_->push_back("mutation-index " + name + ": maintained index "
                        "disappeared from the snapshot");
        continue;
      }
      Result<const Relation*> relp = snap.db().Find(name);
      if (!relp.ok()) {
        out_->push_back("mutation-index " + name + ": relation missing");
        continue;
      }
      const Relation& rel = *relp.value();
      const HashIndex fresh(rel, {0});
      auto rows_of = [](const HashIndex& ix, Value key) {
        HashIndex::RowSpan span = ix.Lookup(Tuple{key});
        std::vector<uint32_t> rows(span.begin(), span.end());
        std::sort(rows.begin(), rows.end());
        return rows;
      };
      std::set<Value> keys;
      const Value* key_col = rel.Column(0);
      for (size_t r = 0; r < rel.NumTuples(); ++r) {
        keys.insert(key_col[r]);
      }
      for (Value v = 0; v < snap.db().DomainSize(); ++v) keys.insert(v);
      for (Value key : keys) {
        if (rows_of(*idx, key) != rows_of(fresh, key)) {
          out_->push_back("mutation-index " + name + ": maintained index "
                          "disagrees with a fresh build on key " +
                          std::to_string(key) + " at epoch " +
                          std::to_string(snap.epoch()));
          break;
        }
      }
    }
  }

  /// The union paths.
  void DiffUnion(const UnionQuery& u, const Relation& reference) {
    {
      Result<std::unique_ptr<AnswerEnumerator>> e =
          MakeUnionEnumerator(u, db_);
      if (!e.ok() && (e.status().code() == StatusCode::kInvalidArgument ||
                      e.status().code() == StatusCode::kUnsupported)) {
        // Not every union is (repairably) free-connex; declining to
        // enumerate is a legitimate outcome, not a wrong answer.
      } else {
        CheckEnumerator("union-enumerator", reference, std::move(e));
      }
    }
    {
      ++paths_run_;
      Engine serial{ExecOptions::Serial()};
      Relation merged(u.name, u.arity());
      Status failed = Status::OK();
      for (const ConjunctiveQuery& q : u.disjuncts) {
        Result<ExecResult> r = serial.Run(ExecRequest(q, db_));
        if (!r.ok()) {
          failed = r.status();
          break;
        }
        merged.AppendFrom(r.value().answers);
      }
      if (!failed.ok()) {
        out_->push_back("union-via-engine: failed where the reference "
                        "succeeded: " + failed.ToString());
      } else {
        Relation canon = Canon(merged);
        if (!SameAnswers(reference, canon)) {
          out_->push_back(DescribeDiff("union-via-engine", reference, canon));
        }
      }
    }
  }

 private:
  const Database& db_;
  const FuzzOptions& opt_;
  std::vector<std::string>* out_;
  size_t paths_run_ = 0;
};

}  // namespace

std::vector<std::string> DiffCase(const UnionQuery& u, const Database& db,
                                  const FuzzOptions& opt, size_t* paths_run,
                                  bool* reference_skipped) {
  std::vector<std::string> mismatches;
  if (paths_run) *paths_run = 0;
  if (reference_skipped) *reference_skipped = false;
  if (u.disjuncts.empty()) return mismatches;

  CaseDiffer differ(db, opt, &mismatches);
  if (u.disjuncts.size() == 1) {
    const ConjunctiveQuery& q = u.disjuncts[0];
    Result<Relation> ref = ReferenceEvaluate(q, db, opt.reference_limit);
    if (!ref.ok()) {
      if (ref.status().code() == StatusCode::kUnsupported) {
        if (reference_skipped) *reference_skipped = true;
      } else {
        mismatches.push_back("reference failed: " + ref.status().ToString());
      }
      return mismatches;
    }
    differ.DiffConjunctive(q, Canon(ref.value()));
  } else {
    Result<Relation> ref = ReferenceEvaluateUnion(u, db, opt.reference_limit);
    if (!ref.ok()) {
      if (ref.status().code() == StatusCode::kUnsupported) {
        if (reference_skipped) *reference_skipped = true;
      } else {
        mismatches.push_back("reference failed: " + ref.status().ToString());
      }
      return mismatches;
    }
    differ.DiffUnion(u, Canon(ref.value()));
    // Each disjunct also runs the serial engine on its own: a disjunct
    // bug can hide behind the union's dedup.
    for (size_t i = 0; i < u.disjuncts.size(); ++i) {
      Result<Relation> dref =
          ReferenceEvaluate(u.disjuncts[i], db, opt.reference_limit);
      if (!dref.ok()) continue;
      Engine serial{ExecOptions::Serial()};
      Result<ExecResult> r = serial.Run(ExecRequest(u.disjuncts[i], db));
      differ.Check("disjunct-" + std::to_string(i) + "-engine",
                   dref.value(),
                   r.ok() ? Result<Relation>(r.value().answers)
                          : Result<Relation>(r.status()));
    }
  }
  if (paths_run) *paths_run = differ.paths_run();
  return mismatches;
}

DiffReport RunDifferentialCase(uint64_t seed, FuzzClass cls,
                               const FuzzOptions& opt) {
  DiffReport report;
  report.seed = seed;
  report.cls = cls;
  // Decorrelate (seed, class) pairs: nearby seeds across classes must not
  // reuse each other's random streams.
  Rng rng(HashCombine(seed, static_cast<uint64_t>(cls) + 0x51ed));
  if (cls == FuzzClass::kUnion) {
    report.query = GenerateFuzzUnion(opt, &rng);
  } else {
    report.query.name = "Q";
    report.query.disjuncts.push_back(GenerateFuzzQuery(cls, opt, &rng));
  }
  report.db = GenerateFuzzDatabase(report.query, opt, &rng);
  report.mismatches = DiffCase(report.query, report.db, opt,
                               &report.paths_run, &report.reference_skipped);
  return report;
}

std::string DiffReport::ToString() const {
  std::string out = "seed " + std::to_string(seed) + " class " +
                    FuzzClassName(cls) + " (" +
                    std::to_string(paths_run) + " paths)\n";
  out += query.disjuncts.size() == 1 ? query.disjuncts[0].ToString()
                                     : query.ToString();
  out += "\n" + db.ToString(8);
  for (const std::string& m : mismatches) {
    out += "MISMATCH " + m + "\n";
  }
  return out;
}

}  // namespace fgq
