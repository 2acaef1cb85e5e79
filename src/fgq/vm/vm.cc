#include "fgq/vm/vm.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "fgq/trace/trace.h"

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
        case Op::kCount:
        case Op::kCountSpan:
        case Op::kCountProbeAll:
        case Op::kHalt:
          // Count opcodes never appear in the enumeration stream; treat
          // anything unexpected as exhaustion.
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

/// The count stream's accumulator: counting adds in a machine word (the
/// one-add-per-span arithmetic), every other instance in its ValueType.
template <typename S>
using StreamValue = std::conditional_t<std::is_same_v<S, CountingSemiring>,
                                       uint64_t, typename S::ValueType>;

/// Executes the count stream (`Program::count_code`) to completion under
/// semiring instance `s`, ⊕-accumulating the ⊗ of Program::weighted_out
/// element weights per answer. The counting instance keeps the fused
/// shape: kCountSpan is one add per span and kCountProbeAll one batched
/// CountProbeGather sweep. The weighted instances hoist every factor that
/// does not move with the innermost cursor out of a tight span loop, and
/// kCountProbeAll degrades to a per-parent-row probe sweep (the batched
/// tag-gather kernel only counts). Polls `cancel` once per kPollWork
/// units of work: one per instruction, plus one per row that a
/// span-fused opcode probes or folds, since one such instruction can
/// sweep a whole relation.
template <typename S>
Result<StreamValue<S>> RunCountStream(const Program& program, const S& s,
                                      const CancelToken& cancel,
                                      TraceContext* trace) {
  constexpr bool kCounting = std::is_same_v<S, CountingSemiring>;
  constexpr const char* kWhat = kCounting ? "vm count" : "vm sum-product";
  constexpr uint64_t kPollWork = 1 << 16;
  // Rows per batched probe sweep, so a long sweep meets the poll too.
  constexpr size_t kGatherRows = 4096;
  using W = typename S::ValueType;
  std::vector<Frame> frame_store(program.nodes.size());
  const Insn* const code = program.count_code.data();
  const ProgramNode* const nodes = program.nodes.data();
  Frame* const frames = frame_store.data();
  // Weighted output slots partitioned by node, so the span-fused count
  // opcodes can hoist every factor that does not move with the innermost
  // cursor out of the tight loop — the semiring analogue of the
  // one-add-per-span shape.
  std::vector<std::vector<uint32_t>> wcols;
  if constexpr (!kCounting) {
    wcols.resize(program.nodes.size());
    for (const OutSlot& o : program.weighted_out) {
      wcols[o.node].push_back(o.col);
    }
  }
  // w ⊗ (⊗ of `node`'s weighted slots at row `rid`).
  auto node_factor = [&](uint32_t node, uint32_t rid, W w) {
    for (uint32_t c : wcols[node]) {
      w = s.Times(w, s.Weight(nodes[node].cols[c][rid]));
    }
    return w;
  };
  constexpr uint32_t kNoSkip = UINT32_MAX;
  // ⊗ of every node's weighted slots at the current frame rows, skipping
  // up to two nodes whose factors the caller supplies itself.
  auto current_factor = [&](uint32_t skip_a, uint32_t skip_b) {
    W w = s.One();
    for (uint32_t n = 0; n < wcols.size(); ++n) {
      if (n == skip_a || n == skip_b || wcols[n].empty()) continue;
      w = node_factor(n, frames[n].rid, std::move(w));
    }
    return w;
  };
  uint64_t ops = 0;
  // The next poll is due when `ops` reaches `poll_at`; the rows a
  // span-fused opcode sweeps bring it closer.
  uint64_t poll_at = kPollWork;
  // Charges `rows` units of work; true when that made the poll due and
  // the token has tripped.
  auto tripped = [&](uint64_t rows) {
    poll_at -= std::min(poll_at, rows);
    if (ops < poll_at) return false;
    poll_at = ops + kPollWork;
    return cancel.cancelled();
  };
  StreamValue<S> acc{};
  if constexpr (!kCounting) acc = s.Zero();
  uint64_t probes = 0;
  int32_t pc = 0;
  for (;;) {
    const Insn& in = code[pc];
    if (++ops >= poll_at) {
      poll_at = ops + kPollWork;
      if (cancel.cancelled()) return cancel.Check(kWhat);
    }
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
      case Op::kCount:
        // One answer at the current frame rows. Not fused like kEmit:
        // this tail also serves the node-less Boolean count program,
        // where there is no frame to step and the product is empty.
        if constexpr (kCounting) {
          ++acc;
        } else {
          acc = s.Plus(acc, current_factor(kNoSkip, kNoSkip));
        }
        pc = in.jump;
        break;
      case Op::kCountSpan: {
        // The innermost node contributes span.count answers that differ
        // only in its own rows: hoist everything else into `prefix`.
        const Frame& f = frames[in.arg];
        if constexpr (kCounting) {
          acc += f.span.count;
        } else {
          const W prefix = current_factor(in.arg, kNoSkip);
          if (wcols[in.arg].empty()) {
            for (uint32_t i = 0; i < f.span.count; ++i) {
              acc = s.Plus(acc, prefix);
            }
          } else {
            for (uint32_t i = 0; i < f.span.count; ++i) {
              acc = s.Plus(acc, node_factor(in.arg, f.span.data[i], prefix));
            }
          }
          if (tripped(f.span.count)) return cancel.Check(kWhat);
        }
        pc = in.jump;
        break;
      }
      case Op::kCountProbeAll: {
        // Consume the parent's remaining candidates and leave the parent
        // exhausted, so its kAdvance falls through to the next-shallower
        // node.
        const ProgramNode& n = nodes[in.arg];
        Frame& pf = frames[n.parent];
        if constexpr (kCounting) {
          // Batched: hash 8 probe keys ahead, prefetch their tag groups,
          // then sum the match span sizes.
          for (size_t begin = pf.pos; begin < pf.span.count;
               begin += kGatherRows) {
            const uint32_t* rows = pf.span.data + begin;
            const size_t m = std::min(pf.span.count - begin, kGatherRows);
            if (n.npcols == 1) {
              acc += n.index->CountProbeGather<1>(n.pcol_ptrs, rows, m);
            } else if (n.npcols == 2) {
              acc += n.index->CountProbeGather<2>(n.pcol_ptrs, rows, m);
            } else {
              acc += n.index->CountProbeGather<0>(n.pcol_ptrs, rows, m);
            }
            probes += m;
            if (tripped(m)) return cancel.Check(kWhat);
          }
        } else {
          // One probe per parent candidate, re-deriving the parent factor
          // per row. Factors of nodes shallower than the parent are
          // loop-invariant.
          const W base = current_factor(in.arg, n.parent);
          for (uint32_t p = pf.pos; p < pf.span.count; ++p) {
            pf.pos = p;
            SetRow(nodes[n.parent], pf);
            ++probes;
            HashIndex::RowSpan span;
            if (n.npcols == 1) {
              span = n.index->LookupColsFixed<1>(n.pcol_ptrs, pf.rid);
            } else if (n.npcols == 2) {
              span = n.index->LookupColsFixed<2>(n.pcol_ptrs, pf.rid);
            } else {
              span = n.index->LookupColsFixed<0>(n.pcol_ptrs, pf.rid);
            }
            if (tripped(1 + span.count)) return cancel.Check(kWhat);
            if (span.count == 0) continue;
            const W w = node_factor(n.parent, pf.rid, base);
            if (wcols[in.arg].empty()) {
              for (uint32_t i = 0; i < span.count; ++i) acc = s.Plus(acc, w);
            } else {
              for (uint32_t i = 0; i < span.count; ++i) {
                acc = s.Plus(acc, node_factor(in.arg, span.data[i], w));
              }
            }
          }
        }
        pf.pos = static_cast<uint32_t>(pf.span.count - 1);
        pc = in.jump;
        break;
      }
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
      case Op::kEmit:
      case Op::kEmitNullary:
      case Op::kHalt:
        TraceCounter(trace, "vm.ops", ops);
        TraceCounter(trace, "vm.probes", probes);
        return acc;
    }
  }
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
      FGQ_ASSIGN_OR_RETURN(
          uint64_t c,
          RunCountStream(program, CountingSemiring{}, cancel, trace));
      return SemiringValue::Counting(BigInt::FromUint64(c));
    }
    case SemiringId::kBoolean: {
      FGQ_ASSIGN_OR_RETURN(
          bool b, RunCountStream(program, BooleanSemiring{}, cancel, trace));
      return SemiringValue::Boolean(b);
    }
    case SemiringId::kMinPlus: {
      FGQ_ASSIGN_OR_RETURN(
          int64_t v, RunCountStream(program, MinPlusSemiring{}, cancel, trace));
      return SemiringValue::MinPlus(v);
    }
    case SemiringId::kMaxMin: {
      FGQ_ASSIGN_OR_RETURN(
          int64_t v, RunCountStream(program, MaxMinSemiring{}, cancel, trace));
      return SemiringValue::MaxMin(v);
    }
    case SemiringId::kTopK: {
      FGQ_ASSIGN_OR_RETURN(std::vector<int64_t> v,
                           RunCountStream(program, TopKSemiring(kTopKWireK),
                                          cancel, trace));
      return SemiringValue::TopK(std::move(v));
    }
  }
  return Status::InvalidArgument("unknown semiring id");
}

}  // namespace vm
}  // namespace fgq
