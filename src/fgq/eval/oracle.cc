#include "fgq/eval/oracle.h"

#include <algorithm>
#include <map>
#include <set>

#include "fgq/eval/prepared.h"

namespace fgq {

namespace {

constexpr Value kUnset = INT64_MIN;

/// Backtracking state shared across the recursion.
struct SearchState {
  const ConjunctiveQuery* q;
  const Database* db;
  std::vector<std::string> vars;        // All variables.
  std::map<std::string, size_t> var_id;
  std::vector<Value> assignment;        // kUnset when unbound.
  Value domain_size;
  // Raw relations per atom (atom order of q->atoms()).
  std::vector<const Relation*> rels;
  // Answer columns in head order, adopted by the result; `found` marks
  // an answer of a Boolean query, which has no column to hold it.
  std::vector<Relation::ColumnVec> out;
  bool found = false;
  std::vector<size_t> head_ids;
  const CancelToken* cancel;
  uint64_t nodes_visited = 0;
  bool aborted = false;
};

/// True if `row` of atom `a` is consistent with the current (partial)
/// assignment and the atom's constants / repeated variables.
bool RowConsistent(const SearchState& st, const Atom& a, const Value* row) {
  for (size_t j = 0; j < a.args.size(); ++j) {
    const Term& t = a.args[j];
    if (!t.is_var()) {
      if (row[j] != t.constant) return false;
    } else {
      Value bound = st.assignment[st.var_id.at(t.var)];
      if (bound != kUnset && row[j] != bound) return false;
    }
  }
  // Repeated variables must agree even when the variable is unbound.
  for (size_t j = 0; j < a.args.size(); ++j) {
    if (!a.args[j].is_var()) continue;
    for (size_t l = j + 1; l < a.args.size(); ++l) {
      if (a.args[l].is_var() && a.args[l].var == a.args[j].var &&
          row[l] != row[j]) {
        return false;
      }
    }
  }
  return true;
}

bool AtomFullyBound(const SearchState& st, const Atom& a) {
  for (const Term& t : a.args) {
    if (t.is_var() && st.assignment[st.var_id.at(t.var)] == kUnset) {
      return false;
    }
  }
  return true;
}

/// Checks all constraints whose variables are fully bound.
bool PartialCheck(const SearchState& st) {
  for (size_t i = 0; i < st.q->atoms().size(); ++i) {
    const Atom& a = st.q->atoms()[i];
    if (!AtomFullyBound(st, a)) continue;
    bool found = false;
    const Relation* rel = st.rels[i];
    Tuple scratch(rel->arity());
    for (size_t r = 0; r < rel->NumTuples() && !found; ++r) {
      rel->CopyRow(r, scratch.data());
      found = RowConsistent(st, a, scratch.data());
    }
    if (a.negated ? found : !found) return false;
  }
  for (const Comparison& c : st.q->comparisons()) {
    Value lhs = st.assignment[st.var_id.at(c.lhs)];
    Value rhs = st.assignment[st.var_id.at(c.rhs)];
    if (lhs == kUnset || rhs == kUnset) continue;
    if (!c.Holds(lhs, rhs)) return false;
  }
  return true;
}

/// Picks the next variable: prefer one occurring in a positive atom that
/// already has a bound variable or a constant (cheap propagation).
int PickVariable(const SearchState& st) {
  int fallback = -1;
  int positive_fallback = -1;
  for (size_t v = 0; v < st.vars.size(); ++v) {
    if (st.assignment[v] != kUnset) continue;
    if (fallback < 0) fallback = static_cast<int>(v);
    for (const Atom& a : st.q->atoms()) {
      if (a.negated) continue;
      bool contains = false;
      bool anchored = false;
      for (const Term& t : a.args) {
        if (!t.is_var()) {
          anchored = true;
        } else if (t.var == st.vars[v]) {
          contains = true;
        } else if (st.assignment[st.var_id.at(t.var)] != kUnset) {
          anchored = true;
        }
      }
      if (contains) {
        if (positive_fallback < 0) positive_fallback = static_cast<int>(v);
        if (anchored) return static_cast<int>(v);
      }
    }
  }
  return positive_fallback >= 0 ? positive_fallback : fallback;
}

/// Candidate values for variable v: from the first positive atom that
/// contains it (rows consistent with the current assignment), else the
/// whole domain.
std::vector<Value> Candidates(const SearchState& st, size_t v) {
  for (size_t i = 0; i < st.q->atoms().size(); ++i) {
    const Atom& a = st.q->atoms()[i];
    if (a.negated) continue;
    int pos = -1;
    for (size_t j = 0; j < a.args.size(); ++j) {
      if (a.args[j].is_var() && a.args[j].var == st.vars[v]) {
        pos = static_cast<int>(j);
        break;
      }
    }
    if (pos < 0) continue;
    std::set<Value> vals;
    const Relation* rel = st.rels[i];
    Tuple scratch(rel->arity());
    for (size_t r = 0; r < rel->NumTuples(); ++r) {
      rel->CopyRow(r, scratch.data());
      if (RowConsistent(st, a, scratch.data())) {
        vals.insert(scratch[static_cast<size_t>(pos)]);
      }
    }
    return std::vector<Value>(vals.begin(), vals.end());
  }
  std::vector<Value> all;
  all.reserve(static_cast<size_t>(st.domain_size));
  for (Value d = 0; d < st.domain_size; ++d) all.push_back(d);
  return all;
}

void Recurse(SearchState* st, size_t bound_count) {
  ++st->nodes_visited;
  if (st->aborted || st->cancel->cancelled()) {
    st->aborted = true;
    return;
  }
  if (bound_count == st->vars.size()) {
    for (size_t i = 0; i < st->head_ids.size(); ++i) {
      st->out[i].push_back(st->assignment[st->head_ids[i]]);
    }
    st->found = true;
    return;
  }
  int v = PickVariable(*st);
  for (Value cand : Candidates(*st, static_cast<size_t>(v))) {
    st->assignment[v] = cand;
    if (PartialCheck(*st)) Recurse(st, bound_count + 1);
    st->assignment[v] = kUnset;
    if (st->aborted) return;
  }
}

}  // namespace

Result<Relation> EvaluateBacktrack(const ConjunctiveQuery& q,
                                   const Database& db,
                                   const CancelToken& cancel) {
  FGQ_RETURN_NOT_OK(q.Validate());
  SearchState st;
  st.q = &q;
  st.db = &db;
  st.cancel = &cancel;
  st.vars = q.Variables();
  for (size_t i = 0; i < st.vars.size(); ++i) st.var_id[st.vars[i]] = i;
  st.assignment.assign(st.vars.size(), kUnset);
  st.domain_size = db.DomainSize();
  for (const Atom& a : q.atoms()) {
    FGQ_ASSIGN_OR_RETURN(const Relation* rel, db.Find(a.relation));
    if (rel->arity() != a.arity()) {
      return Status::InvalidArgument("arity mismatch for atom " +
                                     a.ToString());
    }
    st.rels.push_back(rel);
  }
  st.out.resize(q.arity());
  for (const std::string& h : q.head()) st.head_ids.push_back(st.var_id[h]);

  // A Boolean query is satisfied once any full assignment passes; the
  // recursion naturally records the nullary tuple.
  Recurse(&st, 0);
  Relation out = Relation::FromColumns(q.name(), std::move(st.out));
  if (q.arity() == 0 && st.found) out.AddNullary();
  if (st.aborted) {
    Status base = cancel.Check("backtracking search");
    return Status(base.code(),
                  base.message() + " (visited " +
                      std::to_string(st.nodes_visited) +
                      " search nodes, found " +
                      std::to_string(out.NumTuples()) + " partial answers)");
  }
  out.SortDedup();
  return out;
}

Result<Relation> EvaluateJoinMaterialize(const ConjunctiveQuery& q,
                                         const Database& db) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation()) {
    return Status::Unsupported("join materialization requires positive atoms");
  }
  FGQ_ASSIGN_OR_RETURN(std::vector<PreparedAtom> atoms, PrepareAtoms(q, db));
  if (atoms.empty()) {
    return Status::InvalidArgument("query has no positive atoms");
  }
  // Left-deep join keeping every variable (the naive materialization the
  // fine-grained algorithms avoid).
  std::vector<std::string> all_vars = q.Variables();
  PreparedAtom acc = atoms[0];
  for (size_t i = 1; i < atoms.size(); ++i) {
    std::vector<std::string> keep;
    std::set<std::string> have(acc.vars.begin(), acc.vars.end());
    have.insert(atoms[i].vars.begin(), atoms[i].vars.end());
    for (const std::string& v : all_vars) {
      if (have.count(v)) keep.push_back(v);
    }
    acc = JoinProject(acc, atoms[i], keep);
  }
  // Comparisons as a post-filter.
  for (const Comparison& c : q.comparisons()) {
    int lc = acc.VarIndex(c.lhs);
    int rc = acc.VarIndex(c.rhs);
    if (lc < 0 || rc < 0) {
      return Status::InvalidArgument("comparison over unbound variable: " +
                                     c.ToString());
    }
    acc.rel.Filter([&](TupleView row) {
      return c.Holds(row[static_cast<size_t>(lc)], row[static_cast<size_t>(rc)]);
    });
  }
  std::vector<size_t> cols;
  for (const std::string& v : q.head()) {
    cols.push_back(static_cast<size_t>(acc.VarIndex(v)));
  }
  Relation out = acc.rel.Project(cols, q.name());
  return out;
}

}  // namespace fgq
