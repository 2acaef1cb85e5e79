#include "fgq/eval/yannakakis.h"

#include <algorithm>
#include <set>

#include "fgq/trace/trace.h"

namespace fgq {

Result<ReducedQuery> FullReduce(const ConjunctiveQuery& q, const Database& db,
                                const ExecOptions& opts) {
  return FullReduce(q, db, ExecContext(opts));
}

namespace {

/// What full reduction and the Boolean decision share: rejects negated
/// and cyclic queries, and fills `out`'s hypergraph, GYO join tree and
/// prepared (unreduced) atoms.
Status PrepareReduction(const ConjunctiveQuery& q, const Database& db,
                        const ExecContext& ctx, ReducedQuery* out) {
  if (q.HasNegation()) {
    return Status::Unsupported(
        "Yannakakis handles positive queries; see ncq.h for NCQ");
  }
  out->hg = Hypergraph::FromQuery(q);
  GyoResult gyo = GyoReduce(out->hg);
  if (!gyo.acyclic) {
    return Status::InvalidArgument("query is not alpha-acyclic: " +
                                   q.ToString());
  }
  out->tree = std::move(gyo.tree);
  {
    TraceSpan span(ctx.trace(), "prepare_atoms");
    FGQ_ASSIGN_OR_RETURN(out->atoms, PrepareAtoms(q, db, ctx));
  }
  return ctx.cancel().Check("atom preparation");
}

}  // namespace

Result<ReducedQuery> FullReduce(const ConjunctiveQuery& q, const Database& db,
                                const ExecContext& ctx) {
  ReducedQuery out;
  FGQ_RETURN_NOT_OK(PrepareReduction(q, db, ctx, &out));

  // Both sweeps (bottom-up then top-down, level-parallel with a pool) as
  // bitmap updates over the prepared atoms, compacted once at the end.
  {
    TraceSpan span(ctx.trace(), "semijoin_sweeps");
    FullReduceSweeps(&out.atoms, out.tree, ctx);
  }
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("semijoin sweeps"));
  for (const PreparedAtom& a : out.atoms) {
    if (a.rel.empty() && a.rel.arity() > 0) {
      out.empty = true;
    }
    // A nullary prepared atom is empty exactly when its filter removed all
    // rows (or the relation was empty).
    if (a.rel.arity() == 0 && a.rel.NumTuples() == 0) out.empty = true;
  }
  return out;
}

namespace {

/// Joins the subtree rooted at `e` bottom-up. Each step keeps a variable
/// only while it is free or the parent or a later child still needs it:
/// by running intersection no other subtree mentions it, so it is
/// projected away as soon as its last occurrence is joined. At the root
/// the last step keeps exactly the head's variables, in head order.
PreparedAtom JoinSubtree(const ReducedQuery& rq,
                         const std::set<std::string>& free,
                         const std::vector<std::string>& head, int e,
                         const ExecContext& ctx) {
  PreparedAtom acc = rq.atoms[e];
  // Cooperative cancellation: the per-node joins are the output-dependent
  // (possibly superlinear) phase; bail with whatever was accumulated and
  // let the caller turn the tripped token into a Status.
  if (ctx.cancel().cancelled()) return acc;
  const int p = rq.tree.parent[e];
  const std::vector<int>& children = rq.tree.children[e];
  // The variables of `a` and `b` still needed once the children before
  // `next_child` are joined.
  auto keep_after = [&](const PreparedAtom& a, const PreparedAtom* b,
                        size_t next_child) {
    auto needed = [&](const std::string& v) {
      if (free.count(v) || (p >= 0 && rq.atoms[p].VarIndex(v) >= 0)) {
        return true;
      }
      for (size_t j = next_child; j < children.size(); ++j) {
        if (rq.atoms[children[j]].VarIndex(v) >= 0) return true;
      }
      return false;
    };
    std::vector<std::string> keep;
    auto add = [&](const std::string& v) {
      if ((a.VarIndex(v) >= 0 || (b != nullptr && b->VarIndex(v) >= 0)) &&
          needed(v) && std::find(keep.begin(), keep.end(), v) == keep.end()) {
        keep.push_back(v);
      }
    };
    if (p < 0 && next_child == children.size()) {
      for (const std::string& v : head) add(v);
      return keep;
    }
    for (const std::string& v : a.vars) add(v);
    if (b != nullptr) {
      for (const std::string& v : b->vars) add(v);
    }
    return keep;
  };
  for (size_t i = 0; i < children.size(); ++i) {
    PreparedAtom sub = JoinSubtree(rq, free, head, children[i], ctx);
    acc = JoinProject(acc, sub, keep_after(acc, &sub, i + 1), ctx);
  }
  // A leaf (or a childless root) projects onto what its parent needs.
  std::vector<std::string> keep = keep_after(acc, nullptr, children.size());
  if (keep != acc.vars) {
    std::vector<size_t> cols;
    for (const std::string& v : keep) {
      cols.push_back(static_cast<size_t>(acc.VarIndex(v)));
    }
    acc.rel = acc.rel.Project(cols, acc.rel.name(), ctx);
    acc.vars = keep;
  }
  return acc;
}

}  // namespace

Result<Relation> EvaluateYannakakis(const ConjunctiveQuery& q,
                                    const Database& db,
                                    const ExecOptions& opts) {
  return EvaluateYannakakis(q, db, ExecContext(opts));
}

Result<Relation> EvaluateYannakakis(const ConjunctiveQuery& q,
                                    const Database& db,
                                    const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  FGQ_ASSIGN_OR_RETURN(ReducedQuery rq, FullReduce(q, db, ctx));
  if (rq.empty) {
    return Relation(q.name(), q.arity());
  }
  std::set<std::string> free(q.head().begin(), q.head().end());
  TraceSpan assembly(ctx.trace(), "join_assembly");
  PreparedAtom joined = JoinSubtree(rq, free, q.head(), rq.tree.root, ctx);
  if (ctx.cancel().cancelled()) {
    Status base = ctx.cancel().Check("join assembly");
    return Status(base.code(),
                  base.message() + " (" +
                      std::to_string(joined.rel.NumTuples()) +
                      " partial join rows materialized)");
  }

  // Reorder columns into head order. Boolean query: arity-0 result.
  Relation out(q.name(), q.arity());
  if (q.IsBoolean()) {
    if (joined.rel.NumTuples() > 0) out.AddNullary();
    return out;
  }
  std::vector<size_t> cols;
  for (const std::string& v : q.head()) {
    int c = joined.VarIndex(v);
    if (c < 0) {
      return Status::Internal("head variable '" + v +
                              "' missing from join result");
    }
    cols.push_back(static_cast<size_t>(c));
  }
  // JoinSubtree emits the head order, so this is usually the identity.
  bool identity = cols.size() == joined.vars.size();
  for (size_t j = 0; j < cols.size(); ++j) identity = identity && cols[j] == j;
  out = identity && joined.rel.sorted()
            ? std::move(joined.rel)
            : joined.rel.Project(cols, q.name(), ctx);
  out.set_name(q.name());
  return out;
}

Result<bool> EvaluateBooleanAcq(const ConjunctiveQuery& q, const Database& db,
                                const ExecOptions& opts) {
  return EvaluateBooleanAcq(q, db, ExecContext(opts));
}

Result<bool> EvaluateBooleanAcq(const ConjunctiveQuery& q, const Database& db,
                                const ExecContext& ctx) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("query is not Boolean: " + q.ToString());
  }
  ReducedQuery rq;
  FGQ_RETURN_NOT_OK(PrepareReduction(q, db, ctx, &rq));
  // Only the bottom-up sweep is needed for satisfiability, and no atom is
  // compacted: the answer is whether the root keeps a row.
  bool nonempty;
  {
    TraceSpan span(ctx.trace(), "semijoin_sweeps");
    nonempty = BottomUpSweepNonempty(rq.atoms, rq.tree, ctx);
  }
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("semijoin sweeps"));
  return nonempty;
}

}  // namespace fgq
