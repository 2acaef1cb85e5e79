#include "fgq/vm/vm.h"

#include <memory>
#include <utility>
#include <vector>

#include "fgq/trace/trace.h"
#include "fgq/vm/fold.h"

namespace fgq {
namespace vm {

namespace {

/// One odometer register: the node's current candidate span, the cursor
/// position within it, and the *materialized* current row id. Reads go
/// through the node's column base pointers (SoA storage), so the
/// per-answer hot path — the output gather — is one indexed load per
/// slot: cols[c][rid].
struct Frame {
  HashIndex::RowSpan span;
  uint32_t pos = 0;
  uint32_t rid = 0;
};

/// Rematerializes `f.rid` after a position change. Only called on
/// nonempty spans.
__attribute__((always_inline)) inline void SetRow(const ProgramNode&,
                                                  Frame& f) {
  f.rid = f.span.data[f.pos];
}

/// Executes one probe opcode: refill `frames[in.arg]` keyed by the
/// parent's current row id through the pre-resolved probe column base
/// pointers. K = 0 is the runtime-arity form (also the only legal one
/// for empty-key indexes).
template <size_t K>
__attribute__((always_inline)) inline bool Probe(const ProgramNode* nodes,
                                                 Frame* frames,
                                                 uint16_t node) {
  const ProgramNode& n = nodes[node];
  Frame& f = frames[node];
  f.span = n.index->LookupColsFixed<K>(n.pcol_ptrs, frames[n.parent].rid);
  f.pos = 0;
  if (f.span.count == 0) return false;
  SetRow(n, f);
  return true;
}

/// Reads the current value of (node, col) out of the SoA columns.
__attribute__((always_inline)) inline Value ReadSlot(const ProgramNode* nodes,
                                                     const Frame* frames,
                                                     uint32_t node,
                                                     uint32_t col) {
  return nodes[node].cols[col][frames[node].rid];
}

/// The enumeration-stream cursor. Resumable: kEmit yields by saving the
/// resume pc and returning.
class ProgramCursor final : public AnswerEnumerator {
 public:
  ProgramCursor(std::shared_ptr<const Program> program, TraceContext* trace)
      : program_(std::move(program)),
        trace_(trace),
        frames_(program_->nodes.size()) {}

  ~ProgramCursor() override {
    TraceCounter(trace_, "vm.ops", ops_);
    TraceCounter(trace_, "vm.probes", probes_);
  }

  bool Next(Tuple* out) override {
    const Insn* const code = program_->code.data();
    const ProgramNode* const nodes = program_->nodes.data();
    Frame* const frames = frames_.data();
    uint64_t ops = ops_;
    uint64_t probes = probes_;
    int32_t pc = pc_;
    for (;;) {
      const Insn& in = code[pc];
      ++ops;
      switch (in.op) {
        case Op::kInitRoot: {
          const ProgramNode& n = nodes[in.arg];
          Frame& f = frames[in.arg];
          f.span = HashIndex::RowSpan{n.root_data, n.root_count};
          f.pos = 0;
          if (n.root_count != 0) {
            SetRow(n, f);
            ++pc;
          } else {
            pc = in.jump;
          }
          break;
        }
        case Op::kProbe1:
          ++probes;
          pc = Probe<1>(nodes, frames, in.arg) ? pc + 1 : in.jump;
          break;
        case Op::kProbe2:
          ++probes;
          pc = Probe<2>(nodes, frames, in.arg) ? pc + 1 : in.jump;
          break;
        case Op::kProbeN:
          ++probes;
          pc = Probe<0>(nodes, frames, in.arg) ? pc + 1 : in.jump;
          break;
        case Op::kEmit: {
          const OutSlot* const slots = program_->out.data();
          const size_t arity = program_->out.size();
          out->resize(arity);
          for (size_t i = 0; i < arity; ++i) {
            (*out)[i] = ReadSlot(nodes, frames, slots[i].node, slots[i].col);
          }
          // Fused steady-state advance: step the deepest node (in.arg)
          // here so the next Next() resumes directly at this very
          // instruction — one dispatch per answer instead of a
          // round-trip through the advance chain. code[in.jump] is
          // kAdvance(deepest); its jump field is this pc. When the
          // deepest span is exhausted, resume at the next-shallower
          // advance (in.jump + 1).
          Frame& f = frames[in.arg];
          if (f.pos + 1 < f.span.count) {
            ++f.pos;
            SetRow(nodes[in.arg], f);
            pc_ = code[in.jump].jump;
          } else {
            pc_ = in.jump + 1;
          }
          ops_ = ops;
          probes_ = probes;
          return true;
        }
        case Op::kEmitNullary:
          out->clear();
          pc_ = in.jump;
          ops_ = ops;
          probes_ = probes;
          return true;
        case Op::kAdvance: {
          Frame& f = frames[in.arg];
          if (f.pos + 1 < f.span.count) {
            ++f.pos;
            SetRow(nodes[in.arg], f);
            pc = in.jump;
          } else {
            ++pc;
          }
          break;
        }
        case Op::kHalt:
          pc_ = pc;
          ops_ = ops;
          probes_ = probes;
          return false;
      }
    }
  }

 private:
  std::shared_ptr<const Program> program_;
  TraceContext* trace_;
  std::vector<Frame> frames_;
  int32_t pc_ = 0;
  uint64_t ops_ = 0;
  uint64_t probes_ = 0;
};

/// Folds under a stateless instance and wraps the carrier into a
/// SemiringValue.
template <typename S, typename Wrap>
Result<SemiringValue> FoldAs(const Program& program, S s,
                             const CancelToken& cancel, TraceContext* trace,
                             Wrap wrap) {
  FGQ_ASSIGN_OR_RETURN(typename S::ValueType v,
                       Fold(program, s, cancel, trace));
  return wrap(std::move(v));
}

}  // namespace

std::unique_ptr<AnswerEnumerator> MakeProgramCursor(
    std::shared_ptr<const Program> program, TraceContext* trace) {
  return std::make_unique<ProgramCursor>(std::move(program), trace);
}

Result<SemiringValue> RunSemiring(const Program& program, SemiringId id,
                                  const CancelToken& cancel,
                                  TraceContext* trace) {
  switch (id) {
    case SemiringId::kCounting: {
      CheckedCountingSemiring fast;
      FGQ_ASSIGN_OR_RETURN(uint64_t c, Fold(program, fast, cancel, trace));
      if (!fast.overflowed()) {
        return SemiringValue::Counting(BigInt::FromUint64(c));
      }
      TraceSpan span(trace, "count.dp_exact", "count");
      CountingSemiring exact;
      FGQ_ASSIGN_OR_RETURN(BigInt big, Fold(program, exact, cancel, trace));
      return SemiringValue::Counting(std::move(big));
    }
    case SemiringId::kBoolean:
      return FoldAs(program, BooleanSemiring{}, cancel, trace,
                    SemiringValue::Boolean);
    case SemiringId::kMinPlus:
      return FoldAs(program, MinPlusSemiring{}, cancel, trace,
                    SemiringValue::MinPlus);
    case SemiringId::kMaxMin:
      return FoldAs(program, MaxMinSemiring{}, cancel, trace,
                    SemiringValue::MaxMin);
    case SemiringId::kTopK:
      return FoldAs(program, TopKSemiring(kTopKWireK), cancel, trace,
                    SemiringValue::TopK);
  }
  return Status::InvalidArgument("unknown semiring id");
}

}  // namespace vm
}  // namespace fgq
