#include "fgq/eval/enumerate.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "fgq/db/index.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/trace/trace.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"

namespace fgq {

namespace {

// ---- Materialized baseline --------------------------------------------------

class MaterializedEnumerator : public AnswerEnumerator {
 public:
  explicit MaterializedEnumerator(Relation answers)
      : answers_(std::move(answers)) {}

  bool Next(Tuple* out) override {
    if (answers_.arity() == 0) {
      if (pos_ > 0 || answers_.NumTuples() == 0) return false;
      ++pos_;
      out->clear();
      return true;
    }
    if (pos_ >= answers_.NumTuples()) return false;
    *out = answers_.Row(pos_).ToTuple();
    ++pos_;
    return true;
  }

 private:
  Relation answers_;
  size_t pos_ = 0;
};

/// Emits a single empty tuple (satisfied Boolean query).
class BooleanTrueEnumerator : public AnswerEnumerator {
 public:
  bool Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    out->clear();
    return true;
  }

 private:
  bool done_ = false;
};

class EmptyEnumerator : public AnswerEnumerator {
 public:
  bool Next(Tuple*) override { return false; }
};

// ---- Linear-delay enumerator (Theorem 4.3, Algorithm 2) ---------------------

/// Substitutes head variable `var` by the constant `v` everywhere in `q`
/// and removes it from the head.
ConjunctiveQuery SubstituteHeadVar(const ConjunctiveQuery& q,
                                   const std::string& var, Value v) {
  ConjunctiveQuery out = q;
  std::vector<std::string> head;
  for (const std::string& h : out.head()) {
    if (h != var) head.push_back(h);
  }
  out.set_head(head);
  for (Atom& a : *out.mutable_atoms()) {
    for (Term& t : a.args) {
      if (t.is_var() && t.var == var) t = Term::Const(v);
    }
  }
  return out;
}

class LinearDelayEnumerator : public AnswerEnumerator {
 public:
  LinearDelayEnumerator(const ConjunctiveQuery& q, const Database& db,
                        const ExecContext& ctx)
      : db_(db), ctx_(ctx) {
    levels_.push_back(Level{q, {}, 0});
    Status st = FillCandidates(&levels_.back());
    ok_ = st.ok();
  }

  bool ok() const { return ok_; }

  bool Next(Tuple* out) override {
    if (!ok_) return false;
    // Depth-first walk: extend the prefix until all head variables are
    // fixed, emit, then backtrack. A tripped CancelToken ends the stream
    // early (the per-step reductions also fail via their own checks).
    while (!levels_.empty()) {
      if (ctx_.cancel().cancelled()) {
        ok_ = false;
        return false;
      }
      Level& top = levels_.back();
      if (top.query.arity() == 0) {
        // Complete answer: emit the accumulated prefix, then pop.
        *out = prefix_;
        Pop();
        return true;
      }
      if (top.next_candidate >= top.candidates.size()) {
        Pop();
        continue;
      }
      Value v = top.candidates[top.next_candidate++];
      ConjunctiveQuery sub =
          SubstituteHeadVar(top.query, top.query.head()[0], v);
      prefix_.push_back(v);
      levels_.push_back(Level{std::move(sub), {}, 0});
      Status st = FillCandidates(&levels_.back());
      if (!st.ok()) {
        ok_ = false;
        return false;
      }
    }
    return false;
  }

 private:
  struct Level {
    ConjunctiveQuery query;       // Remaining query (prefix substituted).
    std::vector<Value> candidates;
    size_t next_candidate;
  };

  void Pop() {
    levels_.pop_back();
    if (!prefix_.empty() && levels_.size() <= prefix_.size()) {
      prefix_.pop_back();
    }
  }

  /// The candidate values of the level's first head variable: after full
  /// reduction, the distinct values of that variable in any reduced atom
  /// containing it (global consistency makes each one extendable).
  Status FillCandidates(Level* level) {
    if (level->query.arity() == 0) return Status::OK();
    FGQ_ASSIGN_OR_RETURN(ReducedQuery rq, FullReduce(level->query, db_, ctx_));
    if (rq.empty) return Status::OK();
    const std::string& var = level->query.head()[0];
    for (const PreparedAtom& a : rq.atoms) {
      int c = a.VarIndex(var);
      if (c < 0) continue;
      std::set<Value> vals;
      const Value* col = a.rel.Column(static_cast<size_t>(c));
      for (size_t r = 0; r < a.rel.NumTuples(); ++r) {
        vals.insert(col[r]);
      }
      level->candidates.assign(vals.begin(), vals.end());
      return Status::OK();
    }
    return Status::Internal("head variable '" + var + "' not found");
  }

  const Database& db_;
  ExecContext ctx_;  // Shares the pool across the per-step reductions.
  std::vector<Level> levels_;
  Tuple prefix_;
  bool ok_ = true;
};

}  // namespace

std::unique_ptr<AnswerEnumerator> MakeMaterializedEnumerator(
    Relation answers) {
  return std::make_unique<MaterializedEnumerator>(std::move(answers));
}

Result<std::unique_ptr<AnswerEnumerator>> MakeLinearDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecOptions& opts) {
  return MakeLinearDelayEnumerator(q, db, ExecContext(opts));
}

Result<std::unique_ptr<AnswerEnumerator>> MakeLinearDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation() || !q.comparisons().empty()) {
    return Status::Unsupported("linear-delay enumeration handles plain ACQ");
  }
  if (!IsAcyclicQuery(q)) {
    return Status::InvalidArgument("query is not acyclic: " + q.ToString());
  }
  if (q.IsBoolean()) {
    FGQ_ASSIGN_OR_RETURN(ReducedQuery rq, FullReduce(q, db, ctx));
    if (rq.empty) {
      return std::unique_ptr<AnswerEnumerator>(new EmptyEnumerator());
    }
    return std::unique_ptr<AnswerEnumerator>(new BooleanTrueEnumerator());
  }
  auto e = std::make_unique<LinearDelayEnumerator>(q, db, ctx);
  if (!e->ok()) return Status::Internal("linear-delay preprocessing failed");
  return std::unique_ptr<AnswerEnumerator>(std::move(e));
}

Result<FreeConnexPlan> BuildFreeConnexPlan(const ConjunctiveQuery& q,
                                           const Database& db,
                                           const ExecOptions& opts) {
  return BuildFreeConnexPlan(q, db, ExecContext(opts));
}

Result<FreeConnexPlan> BuildFreeConnexPlan(const ConjunctiveQuery& q,
                                           const Database& db,
                                           const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation() || !q.comparisons().empty()) {
    return Status::Unsupported(
        "constant-delay enumeration handles plain ACQ; see diseq.h for "
        "ACQ with disequalities");
  }
  if (!IsAcyclicQuery(q)) {
    return Status::InvalidArgument("query is not acyclic: " + q.ToString());
  }
  if (!IsFreeConnex(q)) {
    return Status::InvalidArgument(
        "query is not free-connex (Theorem 4.8: constant delay is then "
        "impossible unless Boolean matrix multiplication is easy): " +
        q.ToString());
  }

  // Preprocessing (linear): full reduction, then projection of every
  // reduced atom onto its free variables. Free-connexity makes the
  // projected join equal to phi(D) and its hypergraph acyclic.
  FreeConnexPlan plan;
  FGQ_ASSIGN_OR_RETURN(ReducedQuery rq, FullReduce(q, db, ctx));
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("free-connex preprocessing"));
  if (rq.empty) {
    plan.empty = true;
    return plan;
  }
  if (q.IsBoolean()) {
    return plan;  // Non-empty: satisfiable, no nodes needed.
  }

  std::set<std::string> free(q.head().begin(), q.head().end());
  TraceSpan projection_span(ctx.trace(), "free_projection");
  // One projection task per atom (slots are disjoint; empty slots are
  // purely existential atoms, reduced away), each morsel-parallel inside.
  // Spans open on orchestration threads only, so pooled tasks project
  // untraced.
  const ExecContext task_ctx =
      ctx.pool() == nullptr ? ctx : ctx.WithTrace(nullptr);
  std::vector<PreparedAtom> slots(rq.atoms.size());
  ParallelFor(ctx.pool(), rq.atoms.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      PreparedAtom& a = rq.atoms[i];
      std::vector<std::string> keep;
      std::vector<size_t> cols;
      for (size_t c = 0; c < a.vars.size(); ++c) {
        if (free.count(a.vars[c])) {
          keep.push_back(a.vars[c]);
          cols.push_back(c);
        }
      }
      if (keep.empty()) continue;
      slots[i].vars = std::move(keep);
      // An all-free atom on a canonical set is its own projection.
      if (cols.size() == a.vars.size() && a.rel.sorted()) {
        slots[i].rel = std::move(a.rel);
      } else {
        slots[i].rel = a.rel.Project(cols, a.rel.name(), task_ctx);
      }
    }
  });
  std::vector<PreparedAtom> projected;
  for (PreparedAtom& p : slots) {
    if (!p.vars.empty()) projected.push_back(std::move(p));
  }
  // Projections of a fully reduced, hence globally consistent, instance
  // stay globally consistent, so the projected atoms need no further
  // reduction. An atom whose variable set another atom covers adds no
  // constraint and is dropped. The kept atoms move out only after every
  // cover test, which reads all atoms' variables.
  std::vector<bool> covered(projected.size(), false);
  for (size_t i = 0; i < projected.size(); ++i) {
    for (size_t j = 0; j < projected.size() && !covered[i]; ++j) {
      if (i == j) continue;
      bool subset = true;
      for (const std::string& v : projected[i].vars) {
        if (projected[j].VarIndex(v) < 0) {
          subset = false;
          break;
        }
      }
      // Strict subset, or equal sets keeping the smaller index.
      covered[i] =
          subset &&
          (projected[i].vars.size() < projected[j].vars.size() || i > j);
    }
  }
  std::vector<PreparedAtom> nodes_raw;
  for (size_t i = 0; i < projected.size(); ++i) {
    if (!covered[i]) nodes_raw.push_back(std::move(projected[i]));
  }
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("free-projection"));

  // Join tree of the projected (free-only) hypergraph.
  Hypergraph hfree;
  for (const PreparedAtom& p : nodes_raw) {
    hfree.AddEdgeByNames(p.vars, -1);
  }
  GyoResult gyo = GyoReduce(hfree);
  if (!gyo.acyclic) {
    return Status::Internal(
        "free-connex query produced a cyclic free-projection: " +
        q.ToString());
  }

  // Reorder nodes top-down and rebase parent pointers.
  std::vector<int> order = gyo.tree.TopDownOrder();
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = static_cast<int>(i);
  }
  for (int e : order) {
    plan.nodes.push_back(std::move(nodes_raw[e]));
    int p = gyo.tree.parent[e];
    plan.parent.push_back(p < 0 ? -1 : position[p]);
  }
  return plan;
}

Result<std::unique_ptr<AnswerEnumerator>> MakeConstantDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecOptions& opts) {
  return MakeConstantDelayEnumerator(q, db, ExecContext(opts));
}

Result<std::unique_ptr<AnswerEnumerator>> MakeConstantDelayEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx) {
  // The odometer walk over the indexed plan runs as the VM program.
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const vm::Program> program,
                       vm::CompileFreeConnex(q, db, ctx));
  return vm::MakeProgramCursor(std::move(program), ctx.trace());
}

Relation DrainEnumerator(AnswerEnumerator* e, const std::string& name,
                         size_t arity) {
  // Plain columns that the result adopts: no per-answer ownership check.
  std::vector<Relation::ColumnVec> cols(arity);
  bool any = false;
  Tuple t;
  while (e->Next(&t)) {
    for (size_t c = 0; c < arity; ++c) cols[c].push_back(t[c]);
    any = true;
  }
  Relation out = Relation::FromColumns(name, std::move(cols));
  if (arity == 0 && any) out.AddNullary();
  out.SortDedup();
  return out;
}

}  // namespace fgq
