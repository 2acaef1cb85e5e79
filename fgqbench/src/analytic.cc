#include "analytic.h"

#include <cstdint>
#include <unordered_map>

#include "fgq/count/acq_count.h"
#include "fgq/query/parser.h"
#include "fgq/workload/generators.h"

namespace fgqbench {

namespace {

double Ms(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

/// Written with the reference computation's result so that its probes
/// are not optimised away.
volatile uint64_t reference_sink = 0;

}  // namespace

double ReferenceMs() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> k(200000);
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (uint64_t& v : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x % 1000000;
    }
    return k;
  }();
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<uint64_t, uint32_t> m;
  m.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) m.emplace(keys[i], static_cast<uint32_t>(i));
  uint64_t sum = 0;
  for (uint64_t r = 0; r < 2; ++r) {
    for (uint64_t k : keys) {
      auto it = m.find(k * 3 + r);
      if (it != m.end()) sum += it->second;
    }
  }
  const double ms = Ms(t0);
  reference_sink = sum;
  return ms;
}

AnalyticQueries::AnalyticQueries()
    : decide(fgq::ParseConjunctiveQuery(
                 "Q() :- R(x1, x2), S(x2, x3, y3), R2(x1, y1), "
                 "T(y3, y4, y5), S2(x2, y2).")
                 .value()),
      figure1(fgq::Figure1Query()),
      path2(fgq::PathQuery(2)) {}

fgq::Result<AnalyticTruth> ComputeTruth(
    const fgq::Engine& engine, const AnalyticQueries& q,
    const std::shared_ptr<const fgq::Snapshot>& snap) {
  AnalyticTruth t;
  FGQ_ASSIGN_OR_RETURN(fgq::ExecResult fig1,
                       engine.Run(fgq::ExecRequest(q.figure1, snap)));
  t.decide = fig1.NumAnswers() > 0;
  t.figure1 = std::make_unique<RowSet>(fig1.answers);
  FGQ_ASSIGN_OR_RETURN(
      t.figure1_minplus,
      fgq::FoldAnswersSemiring(q.figure1, fig1.answers, fgq::SemiringId::kMinPlus));
  FGQ_ASSIGN_OR_RETURN(fgq::ExecResult p2,
                       engine.Run(fgq::ExecRequest(q.path2, snap)));
  t.path2_answers = p2.NumAnswers();
  return t;
}

void RunAnalytic(const fgq::Engine& engine, const AnalyticQueries& q,
                 const AnalyticTruth& truth,
                 const std::shared_ptr<const fgq::Snapshot>& snap,
                 double seconds, Ledger* ledger, fgq::TraceContext* trace,
                 AnalyticTimes* times) {
  auto check = [&](bool ok, const std::string& what) {
    ledger->Attempt();
    if (!ok) ledger->Wrong("analytic pass " + std::to_string(times->passes()) +
                           ": " + what);
  };
  // One pass: the five calls, each checked, timed into `out`, and the
  // reference computation before each call and after the last.
  auto pass = [&](AnalyticTimes& out, fgq::TraceContext* trace) {
    std::vector<double> refs{ReferenceMs()};
    {
      fgq::TraceSpan span(trace, "eval.run", "eval");
      const Clock::time_point t0 = Clock::now();
      fgq::Result<fgq::ExecResult> r = engine.Run(fgq::ExecRequest(q.decide, snap));
      out.decide_ms.push_back(Ms(t0));
      check(r.ok() && r->BooleanValue() == truth.decide, "decide");
    }
    refs.push_back(ReferenceMs());
    {
      const Clock::time_point t0 = Clock::now();
      fgq::Result<std::unique_ptr<fgq::AnswerEnumerator>> e =
          [&] {
            fgq::TraceSpan span(trace, "eval.enumerate_open", "eval");
            return engine.Enumerate(fgq::ExecRequest(q.figure1, snap));
          }();
      uint64_t n = 0;
      double first_ms = 0, delay_ns = 0;
      if (e.ok()) {
        fgq::TraceSpan span(trace, "eval.enumerate_drain", "eval");
        fgq::Tuple t;
        if ((*e)->Next(&t)) ++n;
        first_ms = Ms(t0);
        const Clock::time_point t1 = Clock::now();
        while ((*e)->Next(&t)) ++n;
        if (n > 1) delay_ns = SecondsSince(t1) * 1e9 / static_cast<double>(n - 1);
      }
      out.first_answer_ms.push_back(first_ms);
      out.delay_ns.push_back(delay_ns);
      check(e.ok() && n == truth.figure1->size(), "enumerate figure1");
    }
    refs.push_back(ReferenceMs());
    uint64_t joined = 0;
    {
      fgq::TraceSpan span(trace, "eval.run", "eval");
      const Clock::time_point t0 = Clock::now();
      fgq::Result<fgq::ExecResult> r = engine.Run(fgq::ExecRequest(q.path2, snap));
      out.join_ms.push_back(Ms(t0));
      if (r.ok()) joined = r->NumAnswers();
      check(r.ok() && joined == truth.path2_answers, "join path-2");
    }
    refs.push_back(ReferenceMs());
    {
      fgq::TraceSpan span(trace, "eval.sumproduct_count", "eval");
      fgq::ExecRequest req(q.path2, snap);
      req.semiring = fgq::SemiringId::kCounting;
      const Clock::time_point t0 = Clock::now();
      fgq::Result<fgq::SemiringValue> v = engine.SumProduct(req);
      out.count_ms.push_back(Ms(t0));
      check(v.ok() && v->count == fgq::BigInt::FromUint64(joined),
            "count path-2 vs |Run(path-2)|");
    }
    refs.push_back(ReferenceMs());
    {
      fgq::TraceSpan span(trace, "eval.sumproduct_minplus", "eval");
      fgq::ExecRequest req(q.figure1, snap);
      req.semiring = fgq::SemiringId::kMinPlus;
      const Clock::time_point t0 = Clock::now();
      fgq::Result<fgq::SemiringValue> v = engine.SumProduct(req);
      out.sumproduct_ms.push_back(Ms(t0));
      check(v.ok() && *v == truth.figure1_minplus, "min-plus figure1");
    }
    refs.push_back(ReferenceMs());
    // Each call at reference speed: scaled by kReferenceMs / the mean of
    // the reference times on either side of it.
    auto scale = [&](std::vector<double>& v, int call) {
      v.back() *= 2 * kReferenceMs / (refs[call] + refs[call + 1]);
    };
    scale(out.decide_ms, 0);
    scale(out.first_answer_ms, 1);
    scale(out.delay_ns, 1);
    scale(out.join_ms, 2);
    scale(out.count_ms, 3);
    scale(out.sumproduct_ms, 4);
    out.reference_ms.push_back(Median(refs));
  };
  if (times->passes() == 0) {
    // Once, untimed: every enumerated row lies in Run's answer set.
    fgq::Result<std::unique_ptr<fgq::AnswerEnumerator>> e =
        engine.Enumerate(fgq::ExecRequest(q.figure1, snap));
    bool rows_ok = e.ok();
    fgq::Tuple t;
    while (rows_ok && (*e)->Next(&t)) rows_ok = truth.figure1->Has(t.data());
    check(rows_ok, "enumerated figure1 rows lie in Run(figure1)");
    // A first pass runs up to twice as long as the next ones (decide,
    // first answer, join): it is checked but not timed.
    AnalyticTimes warm;
    pass(warm, nullptr);
  }
  const Clock::time_point begin = Clock::now();
  const size_t first = times->passes();
  while (times->passes() == first || SecondsSince(begin) < seconds) {
    pass(*times, trace);
  }
}

}  // namespace fgqbench
