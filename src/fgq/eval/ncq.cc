#include "fgq/eval/ncq.h"

#include <algorithm>
#include <map>
#include <set>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/util/hash.h"

namespace fgq {

namespace {

/// A negative constraint: forbidden assignments of a variable scope.
struct Constraint {
  std::vector<std::string> scope;  // Sorted variable names.
  std::set<Tuple> forbidden;       // Tuples aligned with `scope`.
};

/// Positions of `sub` (a subset) inside `super`; both sorted.
std::vector<size_t> ScopePositions(const std::vector<std::string>& sub,
                                   const std::vector<std::string>& super) {
  std::vector<size_t> pos;
  for (const std::string& v : sub) {
    auto it = std::lower_bound(super.begin(), super.end(), v);
    pos.push_back(static_cast<size_t>(it - super.begin()));
  }
  return pos;
}

bool IsSubsetScope(const std::vector<std::string>& sub,
                   const std::vector<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace

Result<bool> DecideBetaAcyclicNcq(const ConjunctiveQuery& q,
                                  const Database& db) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("NCQ decision requires a Boolean query");
  }
  if (!q.IsNegative()) {
    return Status::InvalidArgument("NCQ requires all atoms negated");
  }
  if (!IsBetaAcyclicQuery(q)) {
    return Status::InvalidArgument("query is not beta-acyclic: " +
                                   q.ToString());
  }
  const Value domain = db.DomainSize();
  std::vector<std::string> all_vars = q.Variables();
  if (domain == 0) {
    // The empty domain satisfies no existential quantification.
    return all_vars.empty();
  }

  // Initial constraints from the (negated) atoms: PrepareAtom resolves
  // constants and repeated variables, leaving forbidden tuples over the
  // atom's distinct variables.
  std::vector<Constraint> constraints;
  for (const Atom& a : q.atoms()) {
    FGQ_ASSIGN_OR_RETURN(PreparedAtom pa, PrepareAtom(a, db));
    Constraint c;
    c.scope = pa.vars;
    std::sort(c.scope.begin(), c.scope.end());
    std::vector<size_t> order;
    for (const std::string& v : c.scope) {
      order.push_back(static_cast<size_t>(pa.VarIndex(v)));
    }
    Tuple t(c.scope.size());
    std::vector<const Value*> cols(pa.vars.size());
    for (size_t j = 0; j < pa.vars.size(); ++j) cols[j] = pa.rel.Column(j);
    for (size_t r = 0; r < pa.rel.NumTuples(); ++r) {
      for (size_t j = 0; j < order.size(); ++j) t[j] = cols[order[j]][r];
      c.forbidden.insert(t);
    }
    if (c.scope.empty()) {
      // Fully ground negated atom: a matching tuple falsifies the query.
      if (pa.rel.NumTuples() > 0) return false;
      continue;
    }
    constraints.push_back(std::move(c));
  }

  std::set<std::string> remaining(all_vars.begin(), all_vars.end());
  while (!remaining.empty()) {
    // Find a dynamic nest point: a variable whose constraints form a chain
    // under scope inclusion. Beta-acyclicity is hereditary under the
    // scope-shrinking our elimination performs, so one always exists.
    std::string z;
    std::vector<size_t> chain;  // Constraint indices, sorted by scope size.
    bool found = false;
    for (const std::string& cand : remaining) {
      chain.clear();
      for (size_t i = 0; i < constraints.size(); ++i) {
        if (std::binary_search(constraints[i].scope.begin(),
                               constraints[i].scope.end(), cand)) {
          chain.push_back(i);
        }
      }
      std::sort(chain.begin(), chain.end(), [&](size_t a, size_t b) {
        return constraints[a].scope.size() < constraints[b].scope.size();
      });
      bool is_chain = true;
      for (size_t i = 0; i + 1 < chain.size() && is_chain; ++i) {
        is_chain = IsSubsetScope(constraints[chain[i]].scope,
                                 constraints[chain[i + 1]].scope);
      }
      if (is_chain) {
        z = cand;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("no nest point available mid-elimination");
    }
    remaining.erase(z);
    if (chain.empty()) continue;  // Unconstrained variable: drop it.

    // For each chain level, map (scope minus z) -> forbidden z values.
    struct Level {
      std::vector<std::string> scope_wo_z;
      std::unordered_map<Tuple, std::set<Value>, VecHash> forbidden_z;
    };
    std::vector<Level> levels;
    for (size_t ci : chain) {
      const Constraint& c = constraints[ci];
      Level lvl;
      size_t z_pos = static_cast<size_t>(
          std::lower_bound(c.scope.begin(), c.scope.end(), z) -
          c.scope.begin());
      for (size_t j = 0; j < c.scope.size(); ++j) {
        if (j != z_pos) lvl.scope_wo_z.push_back(c.scope[j]);
      }
      Tuple key(lvl.scope_wo_z.size());
      for (const Tuple& t : c.forbidden) {
        size_t w = 0;
        for (size_t j = 0; j < c.scope.size(); ++j) {
          if (j != z_pos) key[w++] = t[j];
        }
        lvl.forbidden_z[key].insert(t[z_pos]);
      }
      levels.push_back(std::move(lvl));
    }

    // Emit new constraints: a key at level j is forbidden when the union
    // of z-values from levels <= j (at the key's projections) covers the
    // domain.
    std::vector<Constraint> new_constraints;
    for (size_t j = 0; j < levels.size(); ++j) {
      Constraint nc;
      nc.scope = levels[j].scope_wo_z;
      for (const auto& [key, zs] : levels[j].forbidden_z) {
        std::set<Value> cov = zs;
        for (size_t i = 0; i < j; ++i) {
          std::vector<size_t> proj =
              ScopePositions(levels[i].scope_wo_z, levels[j].scope_wo_z);
          Tuple sub(proj.size());
          for (size_t p = 0; p < proj.size(); ++p) sub[p] = key[proj[p]];
          auto it = levels[i].forbidden_z.find(sub);
          if (it != levels[i].forbidden_z.end()) {
            cov.insert(it->second.begin(), it->second.end());
          }
        }
        if (static_cast<Value>(cov.size()) >= domain) {
          nc.forbidden.insert(key);
        }
      }
      if (nc.scope.empty()) {
        if (!nc.forbidden.empty()) return false;  // All assignments die.
        continue;
      }
      if (!nc.forbidden.empty()) new_constraints.push_back(std::move(nc));
    }

    // Remove the chain constraints; merge the new ones in (constraints
    // with identical scopes coalesce).
    std::vector<Constraint> next;
    std::set<size_t> chain_set(chain.begin(), chain.end());
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (!chain_set.count(i)) next.push_back(std::move(constraints[i]));
    }
    for (Constraint& nc : new_constraints) {
      bool merged = false;
      for (Constraint& c : next) {
        if (c.scope == nc.scope) {
          c.forbidden.insert(nc.forbidden.begin(), nc.forbidden.end());
          merged = true;
          break;
        }
      }
      if (!merged) next.push_back(std::move(nc));
    }
    constraints = std::move(next);
  }

  // All variables eliminated without deriving the empty forbidden tuple.
  return true;
}

TriangleNcq BuildTriangleNcq(const Graph& g) {
  TriangleNcq out;
  // Complement adjacency (with the diagonal) in three self-join-free
  // copies, one per atom, sharing one set of columns. The pairs come out
  // in ascending order, so the relation is canonical as built.
  std::vector<Relation::ColumnVec> cols(2);
  for (int u = 0; u < g.n; ++u) {
    for (int v = 0; v < g.n; ++v) {
      if (u == v || !g.HasEdge(u, v)) {
        cols[0].push_back(u);
        cols[1].push_back(v);
      }
    }
  }
  const Relation complement =
      Relation::FromColumns("R", std::move(cols), /*sorted=*/true);
  for (int copy = 1; copy <= 3; ++copy) {
    Relation r = complement;
    r.set_name("R" + std::to_string(copy));
    out.db.PutRelation(std::move(r));
  }
  out.db.DeclareDomainSize(g.n);
  ConjunctiveQuery q("triangle", {}, {});
  const char* vars[3][2] = {{"x", "y"}, {"y", "z"}, {"z", "x"}};
  for (int copy = 0; copy < 3; ++copy) {
    Atom a;
    a.relation = "R" + std::to_string(copy + 1);
    a.negated = true;
    a.args = {Term::Var(vars[copy][0]), Term::Var(vars[copy][1])};
    q.AddAtom(std::move(a));
  }
  out.query = std::move(q);
  return out;
}

Result<bool> DecideNcqBruteForce(const ConjunctiveQuery& q,
                                 const Database& db) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (!q.IsBoolean() || !q.IsNegative()) {
    return Status::InvalidArgument("brute force expects a Boolean NCQ");
  }
  // Hash the forbidden tuple sets once, then walk domain^vars with eager
  // pruning: each negated atom is checked as soon as its variables are
  // bound.
  std::vector<std::string> vars = q.Variables();
  std::map<std::string, size_t> var_id;
  for (size_t i = 0; i < vars.size(); ++i) var_id[vars[i]] = i;

  struct HashedAtom {
    std::vector<size_t> var_ids;      // Per argument (constants resolved).
    std::unordered_set<Tuple, VecHash> forbidden;
    size_t last_var;                  // Check once this variable is bound.
  };
  std::vector<HashedAtom> atoms;
  for (const Atom& a : q.atoms()) {
    FGQ_ASSIGN_OR_RETURN(PreparedAtom pa, PrepareAtom(a, db));
    HashedAtom h;
    h.last_var = 0;
    for (const std::string& v : pa.vars) {
      size_t id = var_id[v];
      h.var_ids.push_back(id);
      h.last_var = std::max(h.last_var, id);
    }
    for (size_t r = 0; r < pa.rel.NumTuples(); ++r) {
      h.forbidden.insert(pa.rel.Row(r).ToTuple());
    }
    if (pa.vars.empty()) {
      // Ground negated atom.
      if (pa.rel.NumTuples() > 0) return false;
      continue;
    }
    atoms.push_back(std::move(h));
  }
  const Value n = db.DomainSize();
  if (n == 0) return vars.empty();

  std::vector<Value> assignment(vars.size(), 0);
  std::function<bool(size_t)> rec = [&](size_t depth) {
    if (depth == vars.size()) return true;
    for (Value d = 0; d < n; ++d) {
      assignment[depth] = d;
      bool ok = true;
      for (const HashedAtom& h : atoms) {
        if (h.last_var != depth) continue;
        Tuple key(h.var_ids.size());
        for (size_t j = 0; j < h.var_ids.size(); ++j) {
          key[j] = assignment[h.var_ids[j]];
        }
        if (h.forbidden.count(key)) {
          ok = false;
          break;
        }
      }
      if (ok && rec(depth + 1)) return true;
    }
    return false;
  };
  return rec(0);
}

}  // namespace fgq
