#include "workload.h"

#include <algorithm>

#include "fgq/util/random.h"
#include "fgq/workload/generators.h"

namespace fgqbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Both run the in-process passes on the kAnalyticTuples database; they
// differ in the database the wire stream reads.
const WorkloadSpec kWorkloads[] = {
    {"hot-read", 20000},
    {"analytic", kAnalyticTuples},
};

/// One kMutate batch per this many reads: 50 writes per 0.1 s wire slice
/// at 4000 reads/s, enough for a per-slice median.
constexpr size_t kReadsPerWrite = 8;
/// Rows of W removed per batch; each batch inserts as many fresh rows as
/// the deletes removed, so the relation keeps its size.
constexpr size_t kDeletesPerBatch = 4;
/// Rows of W.
constexpr size_t kWriteRows = 64;

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  double stream_seconds) {
  Inputs in;
  in.analytic_db = fgq::ServeWorkloadDatabase(kAnalyticTuples, seed);
  in.db = spec.tuples == kAnalyticTuples
              ? in.analytic_db
              : fgq::ServeWorkloadDatabase(spec.tuples, seed);
  const fgq::Value domain = in.db.DomainSize();
  fgq::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  in.db.PutRelation(fgq::RandomRelation(kWriteRelation, 2, kWriteRows, domain, &rng));

  std::vector<double> weights;
  for (const fgq::ServeWorkloadQuery& q : fgq::ServeWorkloadMix()) {
    in.queries.push_back({q.text, q.label, q.count});
    weights.push_back(q.weight);
  }
  double total_weight = 0;
  for (double w : weights) total_weight += w;

  // W's rows, tracked so every delete names a present row and every batch
  // keeps the size steady.
  std::vector<fgq::Tuple> model;
  {
    const fgq::Relation* rel = in.db.Find(kWriteRelation).value();
    for (size_t i = 0; i < rel->NumTuples(); ++i) {
      model.push_back(rel->Row(i).ToTuple());
    }
  }
  auto make_batch = [&]() {
    std::vector<fgq::Tuple> deletes, inserts;
    for (size_t d = 0; d < kDeletesPerBatch && !model.empty(); ++d) {
      const fgq::Tuple victim = model[rng.Below(model.size())];
      deletes.push_back(victim);
      for (size_t i = 0; i < model.size();) {
        if (model[i] == victim) {
          model[i] = model.back();
          model.pop_back();
          inserts.push_back({static_cast<fgq::Value>(rng.Below(domain)),
                             static_cast<fgq::Value>(rng.Below(domain))});
        } else {
          ++i;
        }
      }
    }
    for (const fgq::Tuple& t : inserts) model.push_back(t);
    // Two entries, deletes then inserts: exactly the batch the server
    // builds from the two wire ops.
    in.batches.push_back(
        {fgq::RelationMutation{kWriteRelation, {}, std::move(deletes)},
         fgq::RelationMutation{kWriteRelation, std::move(inserts), {}}});
  };

  const double interval_ns = 1e9 / kReadQps;
  const auto num_reads = static_cast<size_t>(kReadQps * stream_seconds);
  in.warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  for (size_t i = 0; i < num_reads; ++i) {
    StreamOp op;
    op.at_ns = static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    op.conn = static_cast<int>(i % kNumConns);
    double pick = rng.NextDouble() * total_weight;
    op.query = static_cast<int>(in.queries.size() - 1);
    for (size_t q = 0; q < in.queries.size(); ++q) {
      pick -= weights[q];
      if (pick <= 0) {
        op.query = static_cast<int>(q);
        break;
      }
    }
    in.stream.push_back(op);
    if (i % kReadsPerWrite == kReadsPerWrite / 2) {
      make_batch();
      StreamOp w;
      w.at_ns = op.at_ns + static_cast<int64_t>(interval_ns / 2);
      w.batch = static_cast<int>(in.batches.size() - 1);
      w.conn = 0;
      in.stream.push_back(w);
    }
  }
  return in;
}

fgq::net::Request ToRequest(const Inputs& in, const StreamOp& op, uint64_t id) {
  fgq::net::Request req;
  req.id = id;
  if (op.is_write()) {
    req.verb = fgq::net::Verb::kMutate;
    for (const fgq::RelationMutation& m : in.batches[op.batch]) {
      const bool del = !m.deletes.empty();
      const std::vector<fgq::Tuple>& rows = del ? m.deletes : m.inserts;
      fgq::net::MutationOp mop;
      mop.is_delete = del;
      mop.relation = m.relation;
      mop.arity = 2;
      mop.nrows = rows.size();
      for (const fgq::Tuple& t : rows) {
        mop.values.insert(mop.values.end(), t.begin(), t.end());
      }
      req.mutations.push_back(std::move(mop));
    }
    return req;
  }
  const QueryInfo& q = in.queries[op.query];
  req.query = q.text;
  if (q.count) {
    req.verb = fgq::net::Verb::kCount;
  } else {
    req.verb = fgq::net::Verb::kEnumerateLimit;
    req.limit = kReadLimit;
  }
  return req;
}

}  // namespace fgqbench
