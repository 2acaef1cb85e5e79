#ifndef FGQ_VM_VM_H_
#define FGQ_VM_VM_H_

#include <memory>

#include "fgq/count/semiring.h"
#include "fgq/eval/enumerate.h"
#include "fgq/util/cancel.h"
#include "fgq/util/status.h"
#include "fgq/vm/program.h"

/// \file vm.h
/// The two executors of fgq::vm, over one Program:
///
/// * MakeProgramCursor — a pull-based AnswerEnumerator executing the
///   enumeration stream (`Program::code`). kEmit instructions are the
///   yield points: Next() runs the dispatch loop until one fires, stores
///   the resume pc, and returns the tuple. The cursor holds only
///   query-sized state (one span+position register per node), so any
///   number of cursors share one cached Program. This is the
///   constant-delay enumerator of Theorem 4.6
///   (MakeConstantDelayEnumerator returns one).
/// * RunSemiring — Theorem 4.21's bottom-up pass (vm::Fold, fold.h)
///   under one SemiringId: no bytecode, no materialization, no yields.
///   The cost is O(Σ node rows) under every semiring, whatever the answer
///   count. Counting runs in overflow-checked machine words and reruns
///   exactly in BigInt on overflow, inside a `count.dp_exact` span.
///   Polls `cancel` before it starts and then every ~64k rows.
///
/// The cursor's dispatch loop is a plain switch over Op — no virtual
/// calls, no per-operator allocation; the probe opcodes call the key-arity-
/// specialized HashIndex::LookupRowFixed<K>, so the hash chain and key
/// compare are fully unrolled in the instruction's case block.

namespace fgq {

class TraceContext;  // fgq/trace/trace.h

namespace vm {

/// A fresh cursor over a shared compiled program. `trace`, when set, must
/// outlive the cursor; the cursor flushes bulk counters (vm.ops,
/// vm.probes) to it on destruction.
std::unique_ptr<AnswerEnumerator> MakeProgramCursor(
    std::shared_ptr<const Program> program, TraceContext* trace = nullptr);

/// Folds the program under semiring `id` and returns the ⊕-aggregate,
/// tagged with `id`; kCounting returns |phi(D)|. `trace`, when set,
/// receives the rows folded (vm.ops) and the probes made (vm.probes).
/// Cancellation surfaces as the token's DeadlineExceeded/Cancelled.
Result<SemiringValue> RunSemiring(const Program& program, SemiringId id,
                                  const CancelToken& cancel,
                                  TraceContext* trace = nullptr);

}  // namespace vm
}  // namespace fgq

#endif  // FGQ_VM_VM_H_
