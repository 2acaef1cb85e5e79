#ifndef FGQ_VM_COMPILE_H_
#define FGQ_VM_COMPILE_H_

#include <memory>
#include <string>

#include "fgq/db/database.h"
#include "fgq/query/cq.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/status.h"
#include "fgq/vm/program.h"

/// \file compile.h
/// The lowering pass: classified plan -> fgq::vm bytecode.
///
/// The VM is the only executor of the Theorem 4.6 plan shape, so
/// compilation is the last step of preparing a Boolean or free-connex
/// query:
///   * Boolean acyclic CQs — the plan reduces to a satisfiability bit;
///     the program is a single (conditional) nullary emit.
///   * Free-connex acyclic CQs — the Theorem 4.6 odometer walk, unrolled
///     per join-tree node with key-arity-specialized probes.
/// CompileFreeConnex is the one builder (plan -> indexes -> program) that
/// the constant-delay enumerator, the Engine, the counting and
/// sum-product route (CompileSumProduct) and the serving layer share.
/// CompileQuery wraps it for callers that ask about any query (EXPLAIN,
/// the differ): every other class reports a human-readable
/// fallback_reason ("cyclic is not compilable", ...) instead of a
/// program. Disequalities are served by witness elimination (diseq.h),
/// never by the VM.

namespace fgq {
namespace vm {

/// The outcome of a lowering attempt: a Program, or why not.
struct Compilation {
  std::shared_ptr<const Program> program;
  /// Set iff `program` is null: why the query's class does not compile.
  std::string fallback_reason;

  bool ok() const { return program != nullptr; }
};

/// Builds the Theorem 4.6 plan of a Boolean or free-connex query against
/// `db`, indexes it, and lowers it, recording a "vm.compile" span with
/// code size counters on ctx.trace(). Errors are the plan builders' (not
/// acyclic, not free-connex, missing relation, cancellation) plus
/// Unsupported for a plan too large for the 16-bit operands.
Result<std::shared_ptr<const Program>> CompileFreeConnex(
    const ConjunctiveQuery& q, const Database& db,
    const ExecContext& ctx = ExecContext());

/// Classifies `q` and, for Boolean and free-connex queries, runs
/// CompileFreeConnex. A non-OK Status means plan construction itself
/// failed; "this class does not compile" is an OK Compilation with a
/// fallback_reason.
Result<Compilation> CompileQuery(const ConjunctiveQuery& q, const Database& db,
                                 const ExecContext& ctx = ExecContext());

}  // namespace vm
}  // namespace fgq

#endif  // FGQ_VM_COMPILE_H_
