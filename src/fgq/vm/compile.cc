#include "fgq/vm/compile.h"

#include <utility>

#include "fgq/db/index.h"
#include "fgq/eval/engine.h"
#include "fgq/query/term.h"
#include "fgq/trace/trace.h"
#include "fgq/util/thread_pool.h"

namespace fgq {
namespace vm {

namespace {

/// The init/probe opcode for node `id`: roots load their candidate list,
/// non-roots probe the parent-keyed index with the opcode specialized on
/// the key arity (1 and 2 cover nearly every join-tree edge in practice).
Insn InitInsn(const ProgramNode& n, uint16_t id) {
  Insn in;
  in.arg = id;
  if (n.index == nullptr) {
    in.op = Op::kInitRoot;
  } else if (n.npcols == 1) {
    in.op = Op::kProbe1;
  } else if (n.npcols == 2) {
    in.op = Op::kProbe2;
  } else {
    in.op = Op::kProbeN;
  }
  return in;
}

/// Unrolls the odometer walk over `n` nodes into the enumeration stream:
///
///   init(0) init(1) ... init(n-1)
///   emit(n-1)
///   adv(n-1) adv(n-2) ... adv(0)
///   halt
///
/// Jump wiring encodes the Theorem 4.6 odometer: an empty (re)fill
/// backtracks to the advance chain of the previous node; a successful
/// advance of node k refills every deeper node; emit resumes the advance
/// chain.
std::vector<Insn> LayOutLoop(const std::vector<ProgramNode>& nodes) {
  const int32_t n = static_cast<int32_t>(nodes.size());
  const int32_t halt_pc = 2 * n + 1;
  // adv(k) sits at pc n + 1 + (n - 1 - k): deepest first, right after emit.
  auto adv_pc = [&](int32_t k) { return 2 * n - k; };
  std::vector<Insn> code;
  code.reserve(static_cast<size_t>(halt_pc) + 1);
  for (int32_t i = 0; i < n; ++i) {
    Insn init = InitInsn(nodes[i], static_cast<uint16_t>(i));
    // An empty (re)fill means the current prefix has no extension here;
    // advance the previous node (defensive — full reduction guarantees
    // nonempty probes, but the VM must not rely on it for memory safety).
    init.jump = i == 0 ? halt_pc : adv_pc(i - 1);
    code.push_back(init);
  }
  code.push_back(Insn{Op::kEmit, static_cast<uint16_t>(n - 1), n + 1});
  for (int32_t k = n; k-- > 0;) {
    // Fall-through order deepest -> 0 -> halt; success refills every
    // deeper node, starting right after k's own init.
    code.push_back(Insn{Op::kAdvance, static_cast<uint16_t>(k), k + 1});
  }
  code.push_back(Insn{Op::kHalt, 0, 0});
  return code;
}

/// Builds the indexes over a FreeConnexPlan (O(||D||), morsel-parallel
/// with a pool). `head` is the query head the cursors will emit.
Result<std::shared_ptr<const IndexedFreeConnexPlan>> IndexFreeConnexPlan(
    FreeConnexPlan plan, const std::vector<std::string>& head,
    const ExecContext& ctx) {
  auto out = std::make_shared<IndexedFreeConnexPlan>();
  out->nodes = std::move(plan.nodes);
  out->parent = std::move(plan.parent);
  out->empty = plan.empty;
  out->is_boolean = head.empty();
  if (out->empty) {
    // nodes/parent are unspecified for an empty plan; there is nothing to
    // index and no output slots to resolve.
    return std::shared_ptr<const IndexedFreeConnexPlan>(std::move(out));
  }
  const size_t n = out->nodes.size();
  out->parent_cols.resize(n);
  out->root_rows.resize(n);
  TraceSpan index_span(ctx.trace(), "index_build");
  // Every non-root node is stored connector-first, sorted: each probe's
  // rows are then one run, read in order by the cursor and the fold, and
  // the index builds from those runs. Within a run the rows keep their
  // old relative order, so the enumeration order does not change. (A
  // node already in that order projects onto itself: a column share.)
  for (size_t i = 0; i < n; ++i) {
    if (out->parent[i] < 0) continue;
    PreparedAtom& node = out->nodes[i];
    const PreparedAtom& p = out->nodes[out->parent[i]];
    std::vector<size_t> order;
    for (bool connector : {true, false}) {
      for (size_t c = 0; c < node.vars.size(); ++c) {
        if ((p.VarIndex(node.vars[c]) >= 0) == connector) order.push_back(c);
      }
    }
    std::vector<std::string> vars;
    for (size_t c : order) vars.push_back(node.vars[c]);
    node.rel = node.rel.Project(order, node.rel.name(), ctx);
    node.vars = std::move(vars);
  }
  // Connector columns with the parent; query-sized bookkeeping.
  std::vector<std::vector<size_t>> connector_cols(n);
  for (size_t i = 0; i < n; ++i) {
    if (out->parent[i] >= 0) {
      const PreparedAtom& p = out->nodes[out->parent[i]];
      for (size_t c = 0; c < out->nodes[i].vars.size(); ++c) {
        int pc = p.VarIndex(out->nodes[i].vars[c]);
        if (pc >= 0) {
          connector_cols[i].push_back(c);
          out->parent_cols[i].push_back(static_cast<size_t>(pc));
        }
      }
    } else if (!out->nodes[i].rel.empty()) {
      out->root_rows[i].resize(out->nodes[i].rel.NumTuples());
      for (size_t r = 0; r < out->root_rows[i].size(); ++r) {
        out->root_rows[i][r] = static_cast<uint32_t>(r);
      }
    }
  }
  // The O(||D||) hash-index builds fan out one task per non-root node,
  // each build itself morsel-parallel. Roots are walked, never probed.
  out->indexes.resize(n);
  {
    ParallelFor(ctx.pool(), n, 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (out->parent[i] < 0) continue;
        out->indexes[i] =
            std::make_unique<HashIndex>(out->nodes[i].rel, connector_cols[i],
                                        ctx);
      }
    });
    if (ctx.trace() != nullptr) {
      uint64_t bytes = 0;
      for (const auto& idx : out->indexes) {
        if (idx != nullptr) bytes += idx->MemoryBytes();
      }
      TraceCounter(ctx.trace(), "index_bytes", bytes);
    }
  }
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("plan index build"));
  // Output slots: first node/column providing each head variable.
  for (const std::string& v : head) {
    bool found = false;
    for (size_t i = 0; i < n && !found; ++i) {
      int c = out->nodes[i].VarIndex(v);
      if (c >= 0) {
        out->out_slots.push_back({i, static_cast<size_t>(c)});
        found = true;
      }
    }
    if (!found) {
      return Status::Internal("head variable '" + v +
                              "' missing from free-connex plan");
    }
  }
  return std::shared_ptr<const IndexedFreeConnexPlan>(std::move(out));
}

/// Lowers the indexed plan of `q`. Records a "vm.compile" span with code
/// size counters on `trace`.
Result<std::shared_ptr<const Program>> CompilePlan(
    std::shared_ptr<const IndexedFreeConnexPlan> plan,
    const ConjunctiveQuery& q, TraceContext* trace) {
  TraceSpan span(trace, "vm.compile", "vm");
  auto prog = std::make_shared<Program>();
  prog->plan = plan;
  prog->arity = static_cast<uint32_t>(q.arity());
  prog->is_boolean = plan->is_boolean;
  prog->empty = plan->empty;
  prog->source = q.ToString();
  prog->algorithm = plan->is_boolean ? "boolean-semijoin-sweep+vm"
                                     : "constant-delay-enumeration+vm";
  if (plan->is_boolean) {
    if (!plan->empty) {
      prog->code = {Insn{Op::kEmitNullary, 0, 1}, Insn{Op::kHalt, 0, 0}};
    } else {
      prog->code = {Insn{Op::kHalt, 0, 0}};
    }
  } else if (plan->empty || plan->nodes.empty()) {
    prog->empty = true;
    prog->code = {Insn{Op::kHalt, 0, 0}};
  } else {
    const size_t n = plan->nodes.size();
    if (n > 0xffff) {
      return Status::Unsupported("plan too large for 16-bit operands");
    }
    prog->nodes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ProgramNode pn;
      const Relation& rel = plan->nodes[i].rel;
      pn.arity = static_cast<uint32_t>(rel.arity());
      std::vector<const Value*> cols(rel.arity());
      for (size_t c = 0; c < rel.arity(); ++c) cols[c] = rel.Column(c);
      prog->ptr_storage.push_back(std::move(cols));
      pn.cols = prog->ptr_storage.back().data();
      if (plan->parent[i] < 0) {
        pn.root_data = plan->root_rows[i].data();
        pn.root_count = static_cast<uint32_t>(plan->root_rows[i].size());
      } else {
        pn.index = plan->indexes[i].get();
        pn.parent = static_cast<uint32_t>(plan->parent[i]);
        pn.npcols = static_cast<uint32_t>(plan->parent_cols[i].size());
        // Resolve the parent probe columns to base pointers once, at
        // compile time: the probe opcodes index them by row id only.
        const Relation& prel =
            plan->nodes[static_cast<size_t>(plan->parent[i])].rel;
        std::vector<const Value*> pptrs(pn.npcols);
        for (size_t j = 0; j < pptrs.size(); ++j) {
          pptrs[j] = prel.Column(plan->parent_cols[i][j]);
        }
        prog->ptr_storage.push_back(std::move(pptrs));
        pn.pcol_ptrs = prog->ptr_storage.back().data();
      }
      prog->nodes.push_back(pn);
    }
    prog->out.reserve(plan->out_slots.size());
    for (const auto& slot : plan->out_slots) {
      prog->out.push_back(OutSlot{static_cast<uint32_t>(slot.first),
                                  static_cast<uint32_t>(slot.second)});
    }
    prog->code = LayOutLoop(prog->nodes);
  }

  if (trace != nullptr) {
    span.Arg("algorithm", prog->algorithm);
    span.Arg("nodes", std::to_string(prog->nodes.size()));
    TraceCounter(trace, "vm.programs", 1);
    TraceCounter(trace, "vm.code_len", prog->code.size());
  }
  return std::shared_ptr<const Program>(std::move(prog));
}

}  // namespace

Result<std::shared_ptr<const Program>> CompileFreeConnex(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx) {
  FGQ_ASSIGN_OR_RETURN(FreeConnexPlan fc, BuildFreeConnexPlan(q, db, ctx));
  FGQ_ASSIGN_OR_RETURN(auto indexed,
                       IndexFreeConnexPlan(std::move(fc), q.head(), ctx));
  return CompilePlan(std::move(indexed), q, ctx.trace());
}

Result<Compilation> CompileQuery(const ConjunctiveQuery& q, const Database& db,
                                 const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  const QueryClass cls = Engine::Classify(q);
  Compilation c;
  if (cls == QueryClass::kBooleanAcyclic ||
      cls == QueryClass::kFreeConnexAcyclic) {
    FGQ_ASSIGN_OR_RETURN(c.program, CompileFreeConnex(q, db, ctx));
  } else {
    c.fallback_reason =
        std::string(QueryClassName(cls)) + " is not compilable";
  }
  return c;
}

}  // namespace vm
}  // namespace fgq
