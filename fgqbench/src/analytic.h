#ifndef FGQBENCH_ANALYTIC_H_
#define FGQBENCH_ANALYTIC_H_

// The in-process phase: closed-loop passes of the paper's five operations
// on one pinned snapshot, from one caller thread over a serial Engine.

#include <memory>
#include <vector>

#include "common.h"
#include "fgq/count/semiring.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/query/cq.h"
#include "fgq/trace/trace.h"
#include "verify.h"

namespace fgqbench {

/// The queries of one pass.
struct AnalyticQueries {
  AnalyticQueries();
  fgq::ConjunctiveQuery decide;  ///< Boolean Figure-1 ACQ.
  fgq::ConjunctiveQuery figure1; ///< Free-connex Figure-1 query.
  fgq::ConjunctiveQuery path2;   ///< Non-free-connex 2-path.
};

/// Reference results, computed untimed before the passes.
struct AnalyticTruth {
  bool decide = false;
  std::unique_ptr<RowSet> figure1;
  uint64_t path2_answers = 0;
  fgq::SemiringValue figure1_minplus;  ///< FoldAnswersSemiring over Run.
};

fgq::Result<AnalyticTruth> ComputeTruth(
    const fgq::Engine& engine, const AnalyticQueries& q,
    const std::shared_ptr<const fgq::Snapshot>& snap);

/// The reference computation's time the pass timings are scaled to.
inline constexpr double kReferenceMs = 35;

/// Wall time in ms of the reference computation: a std::unordered_map of
/// 2e5 fixed keys built and probed twice over. It is the benchmark's
/// own code, so no change to fgq moves it, and it leans on the memory
/// system as the passes do: on the benchmark host both slowed together by
/// up to 1.5x when its neighbours loaded the machine, which a
/// compute-bound loop did not show.
double ReferenceMs();

/// Per-pass timings (one entry per pass) at reference speed: each is
/// multiplied by kReferenceMs / the mean reference computation time just
/// before and just after its call.
struct AnalyticTimes {
  std::vector<double> decide_ms, first_answer_ms, delay_ns, join_ms,
      count_ms, sumproduct_ms;
  std::vector<double> reference_ms;  ///< Median per pass, as measured.
  size_t passes() const { return decide_ms.size(); }
};

/// Runs passes until `seconds` have elapsed (at least one), checking
/// every result, and appends their timings to `out`. On the first call
/// an untimed warm-up pass goes first. With `trace` set, each timed
/// call is a span (of its time as measured).
void RunAnalytic(const fgq::Engine& engine, const AnalyticQueries& q,
                 const AnalyticTruth& truth,
                 const std::shared_ptr<const fgq::Snapshot>& snap,
                 double seconds, Ledger* ledger, fgq::TraceContext* trace,
                 AnalyticTimes* out);

}  // namespace fgqbench

#endif  // FGQBENCH_ANALYTIC_H_
