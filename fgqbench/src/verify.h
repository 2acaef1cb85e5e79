#ifndef FGQBENCH_VERIFY_H_
#define FGQBENCH_VERIFY_H_

// Output checks: every answer the benchmark receives, over the wire or
// from an in-process QueryService, is compared with an in-process Engine
// answer. The writes touch only W, which no query reads, so every epoch's
// answer is the initial database's.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fgq/db/relation.h"
#include "fgq/eval/engine.h"
#include "fgq/net/protocol.h"
#include "fgq/serve/query_service.h"
#include "workload.h"

namespace fgqbench {

/// A set of rows with an independent membership test (sorted row-major
/// copies), so a wrong index in the program cannot vouch for itself.
class RowSet {
 public:
  explicit RowSet(const fgq::Relation& rel);
  size_t size() const { return n_; }
  bool Has(const fgq::Value* row) const;

 private:
  size_t arity_ = 0;
  size_t n_ = 0;
  std::vector<fgq::Value> rows_;  ///< n_ distinct rows, sorted, row-major.
};

/// One answer in a transport-neutral shape.
struct Answer {
  bool ok = false;
  std::string error;
  uint64_t epoch = 0;
  bool cache_hit = false;
  uint64_t nrows = 0;
  std::vector<fgq::Value> values;  ///< Row-major, nrows * arity.
  std::string count;               ///< Count-verb body.
};

Answer FromWire(const fgq::net::Response& r);
Answer FromService(const fgq::ServiceResponse& r);

/// Checks answers to stream ops. Writes touch only W, which no query
/// reads, so every read is checked against its query's epoch-1 result.
class Verifier {
 public:
  /// Evaluates every query of `in` on the initial database.
  Verifier(const Inputs& in, const fgq::Engine& engine);

  /// `answers[i]` answers stream op i (null: never answered, which the
  /// caller has already counted as failed). `expect_hits`: reads past the
  /// warm-up must come from the plan cache. Returns the number of answers
  /// whose content was compared.
  uint64_t Check(const std::vector<const Answer*>& answers, bool expect_hits,
                 const char* where, Ledger* ledger) const;

 private:
  /// One query's epoch-1 result: the exact count for count reads, the
  /// answer set otherwise (null, or an empty count, if evaluation failed).
  struct Truth {
    std::string count;
    std::unique_ptr<RowSet> rows;
  };

  const Inputs& in_;
  std::vector<Truth> truths_;  ///< By query index.
};

}  // namespace fgqbench

#endif  // FGQBENCH_VERIFY_H_
