#include "verify.h"

#include <memory>
#include <numeric>
#include <set>

#include "fgq/db/snapshot.h"
#include "fgq/query/parser.h"

namespace fgqbench {

RowSet::RowSet(const fgq::Relation& rel) : arity_(rel.arity()) {
  const size_t n = rel.NumTuples();
  if (arity_ == 0) {
    n_ = n > 0 ? 1 : 0;
    return;
  }
  const std::vector<fgq::Value> flat = rel.ToRowMajor();
  auto row = [&](size_t i) { return flat.data() + i * arity_; };
  auto less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(row(a), row(a) + arity_, row(b),
                                        row(b) + arity_);
  };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), less);
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && !less(order[k - 1], order[k])) continue;  // Duplicate.
    rows_.insert(rows_.end(), row(order[k]), row(order[k]) + arity_);
    ++n_;
  }
}

bool RowSet::Has(const fgq::Value* row) const {
  if (arity_ == 0) return n_ > 0;
  size_t lo = 0, hi = n_;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const fgq::Value* m = rows_.data() + mid * arity_;
    if (std::lexicographical_compare(m, m + arity_, row, row + arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < n_ && std::equal(row, row + arity_, rows_.data() + lo * arity_);
}

Answer FromWire(const fgq::net::Response& r) {
  Answer a;
  a.ok = r.ok();
  a.error = r.text;
  a.epoch = r.epoch;
  a.cache_hit = r.cache_hit();
  a.nrows = r.nrows;
  a.values = r.values;
  a.count = r.count;
  return a;
}

Answer FromService(const fgq::ServiceResponse& r) {
  Answer a;
  a.ok = r.status.ok();
  a.error = r.status.ToString();
  a.epoch = r.epoch;
  a.cache_hit = r.cache_hit;
  if (r.answers != nullptr) {
    a.nrows = r.answers->NumTuples();
    a.values = r.answers->ToRowMajor();
  }
  a.count = r.count.ToString();
  return a;
}

Verifier::Verifier(const Inputs& in, const fgq::Engine& engine)
    : in_(in), truths_(in.queries.size()) {
  const fgq::SnapshotStore initial(in.db);
  const std::shared_ptr<const fgq::Snapshot> snap = initial.Current();
  for (size_t q = 0; q < in.queries.size(); ++q) {
    const fgq::ConjunctiveQuery cq =
        fgq::ParseConjunctiveQuery(in.queries[q].text).value();
    const fgq::ExecRequest req(cq, snap);
    if (in.queries[q].count) {
      fgq::Result<fgq::SemiringValue> v = engine.SumProduct(req);
      if (v.ok()) truths_[q].count = v->Encode();
    } else {
      fgq::Result<fgq::ExecResult> r = engine.Run(req);
      if (r.ok()) truths_[q].rows = std::make_unique<RowSet>(r->answers);
    }
  }
}

uint64_t Verifier::Check(const std::vector<const Answer*>& answers,
                         bool expect_hits, const char* where,
                         Ledger* ledger) const {
  const std::vector<StreamOp>& stream = in_.stream;
  const uint64_t last_epoch = 1 + in_.batches.size();
  uint64_t checked = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer* a = answers[i];
    if (a == nullptr) continue;
    const StreamOp& op = stream[i];
    const std::string tag = std::string(where) + " op " + std::to_string(i);
    if (!a->ok) {
      ledger->Fail(tag + ": " + a->error);
      continue;
    }
    if (op.is_write()) {
      if (a->epoch != static_cast<uint64_t>(op.batch) + 2) {
        ledger->Wrong(tag + ": write published epoch " +
                      std::to_string(a->epoch) + ", expected " +
                      std::to_string(op.batch + 2));
      }
      continue;
    }
    const QueryInfo& qi = in_.queries[op.query];
    if (a->epoch < 1 || a->epoch > last_epoch) {
      ledger->Wrong(tag + ": epoch " + std::to_string(a->epoch) +
                    " out of range");
      continue;
    }
    if (expect_hits && op.at_ns >= in_.warmup_ns && !a->cache_hit) {
      ledger->Fail(tag + ": '" + qi.label + "' missed the plan cache");
    }
    const Truth& t = truths_[op.query];
    ++checked;
    if (qi.count) {
      if (t.count.empty() || a->count != t.count) {
        ledger->Wrong(tag + ": count " + a->count + ", engine says " + t.count);
      }
      continue;
    }
    if (t.rows == nullptr) {
      ledger->Wrong(tag + ": engine could not evaluate '" + qi.text + "'");
      continue;
    }
    const uint64_t want = std::min<uint64_t>(kReadLimit, t.rows->size());
    if (a->nrows != want) {
      ledger->Wrong(tag + ": " + std::to_string(a->nrows) + " rows, expected " +
                    std::to_string(want));
      continue;
    }
    const size_t arity = a->nrows == 0 ? 0 : a->values.size() / a->nrows;
    std::set<std::vector<fgq::Value>> distinct;
    bool members = true;
    for (uint64_t r = 0; r < a->nrows && members; ++r) {
      const fgq::Value* row = a->values.data() + r * arity;
      distinct.emplace(row, row + arity);
      members = t.rows->Has(row);
    }
    if (!members) {
      ledger->Wrong(tag + ": row outside the answer set of '" + qi.text + "'");
    } else if (distinct.size() != a->nrows) {
      ledger->Wrong(tag + ": repeated rows");
    }
  }
  return checked;
}

}  // namespace fgqbench
