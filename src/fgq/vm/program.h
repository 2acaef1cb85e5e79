#ifndef FGQ_VM_PROGRAM_H_
#define FGQ_VM_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fgq/db/index.h"
#include "fgq/eval/enumerate.h"

/// \file program.h
/// The compiled-plan bytecode of fgq::vm, the executor of every Boolean
/// and free-connex plan.
///
/// Once a query is classified Boolean or free-connex ACQ, the shape of
/// its evaluation loop is fixed by the paper's dichotomy: an odometer
/// walk over the hash-indexed join-tree nodes of an IndexedFreeConnexPlan,
/// in which every probe is nonempty after full reduction. The compiler
/// (compile.h) *lowers* the plan into a straight-line register program
/// whose control flow is the odometer unrolled per node, so the
/// switch-threaded VM (vm.h) executes it with zero virtual calls and
/// key-arity-specialized probes. Aggregates (counting and every other
/// semiring) do not run bytecode: vm::RunSemiring folds the same node
/// table bottom-up over the plan's indexes.
///
/// The machine: one register ("frame") per join-tree node holding the
/// node's current candidate span (a borrowed CSR RowSpan) and a position
/// into it. Instructions address nodes by the `arg` field; every
/// conditional instruction carries an absolute `jump` target.
///
///   kInitRoot n   frame[n] = root candidate list of node n, pos = 0;
///                 jump when empty (defensive — full reduction makes
///                 every root list of a nonempty plan nonempty).
///   kProbe1 n     frame[n] = index probe of node n keyed by 1 parent
///                 column (compile-time-specialized gather+hash);
///                 pos = 0; jump when empty.
///   kProbe2 n     Same, 2 key columns.
///   kProbeN n     Same, runtime key arity (covers 0 and >= 3).
///   kEmit n       Yield the output tuple gathered from `out`, stepping
///                 the deepest node n before returning (the fused
///                 steady-state advance): the next call resumes at this
///                 instruction while n has candidates, at the advance
///                 chain past n (`jump` + 1) once it is exhausted.
///   kEmitNullary  Yield the empty tuple (satisfied Boolean query);
///                 resume at `jump`.
///   kAdvance n    If node n has another candidate: ++pos, go to `jump`
///                 (refill everything deeper). Otherwise fall through
///                 (advance the next-shallower node).
///   kHalt         Enumeration exhausted.
///
/// A Program is immutable after compilation and holds a shared_ptr to the
/// IndexedFreeConnexPlan whose relations/indexes its raw pointers borrow,
/// so it is exactly as cacheable and shareable as the plan itself: the
/// serving layer stores it in the plan cache and any number of concurrent
/// cursors execute it.

namespace fgq {
namespace vm {

enum class Op : uint8_t {
  kInitRoot,
  kProbe1,
  kProbe2,
  kProbeN,
  kEmit,
  kEmitNullary,
  kAdvance,
  kHalt,
};

/// Stable mnemonic ("init_root", "probe1", ...), for disassembly.
const char* OpName(Op op);

/// One instruction. `arg` is the node id; `jump` is an absolute pc,
/// meaning per opcode (see the table above).
struct Insn {
  Op op = Op::kHalt;
  uint16_t arg = 0;
  int32_t jump = 0;
};

/// Everything the VM needs about one join-tree node, flattened to raw
/// pointers (borrowed from the Program's IndexedFreeConnexPlan, which the
/// Program keeps alive). Roots carry a candidate list; non-roots carry
/// the parent-keyed hash index and the probe-column map.
struct ProgramNode {
  const HashIndex* index = nullptr;      ///< Null for roots.
  const Value* const* cols = nullptr;    ///< Column base pointers (arity).
  uint32_t arity = 0;
  uint32_t parent = 0;                   ///< Parent node id (non-roots).
  const Value* const* pcol_ptrs = nullptr;  ///< Parent probe column bases.
  uint32_t npcols = 0;
  const uint32_t* root_data = nullptr;   ///< Root candidate row ids.
  uint32_t root_count = 0;
};

/// (node, column) of one output tuple slot, in head order.
struct OutSlot {
  uint32_t node = 0;
  uint32_t col = 0;
};

/// One compiled plan: the enumeration program (`code`, kEmit yields) over
/// a node table that vm::RunSemiring also folds. Immutable shared state.
struct Program {
  /// Owns the relations/indexes every raw pointer below borrows.
  std::shared_ptr<const IndexedFreeConnexPlan> plan;
  /// Backing store for the per-node column-pointer arrays (`cols`,
  /// `pcol_ptrs`). Inner buffers are address-stable as the outer vector
  /// grows, so nodes may be built incrementally.
  std::vector<std::vector<const Value*>> ptr_storage;
  std::vector<ProgramNode> nodes;
  std::vector<Insn> code;
  /// One slot per head variable, in head order. Head variables are
  /// distinct (ConjunctiveQuery::Validate), so these are also the slots
  /// whose element weights a semiring answer multiplies (semiring.h).
  std::vector<OutSlot> out;
  uint32_t arity = 0;
  bool empty = false;
  bool is_boolean = false;
  /// The query this was compiled from (ToString form), for disassembly.
  std::string source;
  /// The ExecResult::algorithm label of the compiled dispatch, e.g.
  /// "constant-delay-enumeration+vm".
  std::string algorithm;

  /// Human-readable listing of the node table and `code` (EXPLAIN
  /// --bytecode).
  std::string Disassemble() const;
};

}  // namespace vm
}  // namespace fgq

#endif  // FGQ_VM_PROGRAM_H_
