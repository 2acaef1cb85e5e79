#ifndef FGQ_TRACE_EXPLAIN_H_
#define FGQ_TRACE_EXPLAIN_H_

#include <memory>
#include <string>

#include "fgq/count/semiring.h"
#include "fgq/db/database.h"
#include "fgq/eval/engine.h"
#include "fgq/query/cq.h"
#include "fgq/trace/trace.h"
#include "fgq/util/status.h"

/// \file explain.h
/// EXPLAIN: the classification verdict *with its evidence*.
///
/// Engine::Classify walks the paper's dichotomies and Engine::Execute
/// dispatches accordingly, but both are black boxes to a caller: you get
/// a class name and answers, not the join tree that proved acyclicity,
/// not the free-connex check, not the theorem whose bound you are being
/// promised. Explain() re-runs the structural analysis and keeps the
/// witnesses:
///
///   * the GYO join tree when the query is alpha-acyclic, or the
///     irreducible edge core the ear removal stalled on when it is not;
///   * the head-extended hypergraph verdict for the free-connex check;
///   * the comparison/negation features that route around the fast paths;
///   * the dispatch target, its implementing file, its paper theorem, its
///     complexity bound, and the benchmark that verifies the bound.
///
/// In post-execution mode (ExplainOptions::execute) the query actually
/// runs with a TraceContext attached, and the explanation additionally
/// carries the measured per-phase breakdown (prepare_atoms /
/// semijoin_sweeps / index_build / enumerate ...) plus the trace itself
/// for Chrome export.
///
/// Renderings:
///   * ClassificationText() — deterministic, timing-free; what the CI
///     golden files pin (catches silent classifier drift).
///   * Text() — ClassificationText() plus the measured breakdown.
///   * Json() — the same content as a JSON object.

namespace fgq {

/// Static facts about one QueryClass dispatch target. The same table
/// drives EXPLAIN and docs/ARCHITECTURE.md.
struct QueryClassInfo {
  const char* name;       ///< Stable class name (QueryClassName()).
  const char* theorem;    ///< Paper theorem backing the dispatch.
  const char* algorithm;  ///< ExecResult::algorithm of the dispatch target.
  const char* bound;      ///< Predicted complexity bound.
  const char* file;       ///< Implementing file.
  const char* benchmark;  ///< Benchmark that verifies the bound.
};

/// The dispatch-table row for a class. Never fails; every enumerator has
/// an entry.
const QueryClassInfo& GetQueryClassInfo(QueryClass c);

/// Static facts about one count-verb semiring instance. One row per
/// SemiringId; rendered by ClassificationText() as the "count-semirings"
/// section (so the CI goldens pin it) and by docs/SEMIRINGS.md.
struct SemiringInfo {
  const char* name;     ///< Stable instance name (SemiringName()).
  const char* ops;      ///< (plus, times) and the carrier.
  const char* theorem;  ///< Paper result backing the aggregate.
  const char* bound;    ///< Count-verb cost over an acyclic query.
};

/// The semiring-table row for an instance. Never fails; every SemiringId
/// has an entry.
const SemiringInfo& GetSemiringInfo(SemiringId id);

struct ExplainOptions {
  /// Also execute the query (with a trace attached) and include the
  /// measured per-phase breakdown.
  bool execute = false;
  /// Also lower the query to fgq::vm bytecode and include the program
  /// disassembly — or, when the class does not compile, the fallback
  /// reason. Never fails the explanation.
  bool bytecode = false;
};

/// One explained query: verdict + witness (+ measurement).
struct Explanation {
  std::string query_text;                 ///< ConjunctiveQuery::ToString().
  QueryClass classification = QueryClass::kCyclic;
  QueryClassInfo info{};                  ///< Dispatch-table row.
  std::string witness;                    ///< Multi-line structural evidence.

  bool executed = false;
  size_t num_answers = 0;                 ///< Valid when executed.
  std::string algorithm;                  ///< Measured dispatch (executed).
  /// The spans/counters of the traced execution; null when not executed.
  std::shared_ptr<TraceContext> trace;
  /// ExplainOptions::bytecode only: the vm::Program disassembly, or a
  /// "not compilable: <reason>" line. Rendered by Text()/Json() but NOT
  /// ClassificationText() — the golden files stay measurement-free and
  /// bytecode-free.
  std::string bytecode;

  /// Deterministic subset (no timings, no counts) — the golden-file
  /// format for classifier-drift detection.
  std::string ClassificationText() const;
  /// Human EXPLAIN: classification + witness + measured breakdown.
  std::string Text() const;
  /// The same as one JSON object (spans in Chrome form under "trace").
  std::string Json() const;
};

/// Explains `q` against `db` using `engine` for execution (its pool and
/// options apply in execute mode).
Result<Explanation> Explain(const ConjunctiveQuery& q, const Database& db,
                            const Engine& engine,
                            const ExplainOptions& opts = {});

/// Convenience: a serial engine.
Result<Explanation> Explain(const ConjunctiveQuery& q, const Database& db,
                            const ExplainOptions& opts = {});

}  // namespace fgq

#endif  // FGQ_TRACE_EXPLAIN_H_
