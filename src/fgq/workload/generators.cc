#include "fgq/workload/generators.h"

#include <algorithm>
#include <set>

#include "fgq/query/parser.h"

namespace fgq {

Relation RandomRelation(const std::string& name, size_t arity, size_t tuples,
                        Value domain, Rng* rng) {
  Relation rel(name, arity);
  Tuple t(arity);
  for (size_t i = 0; i < tuples; ++i) {
    for (size_t j = 0; j < arity; ++j) {
      t[j] = static_cast<Value>(rng->Below(static_cast<uint64_t>(domain)));
    }
    rel.Add(t);
  }
  rel.SortDedup();
  return rel;
}

ConjunctiveQuery PathQuery(size_t k) {
  ConjunctiveQuery q("Path" + std::to_string(k),
                     {"x1", "x" + std::to_string(k + 1)}, {});
  for (size_t i = 1; i <= k; ++i) {
    Atom a;
    a.relation = "E" + std::to_string(i);
    a.args = {Term::Var("x" + std::to_string(i)),
              Term::Var("x" + std::to_string(i + 1))};
    q.AddAtom(std::move(a));
  }
  return q;
}

ConjunctiveQuery FullPathQuery(size_t k) {
  ConjunctiveQuery q = PathQuery(k);
  std::vector<std::string> head;
  for (size_t i = 1; i <= k + 1; ++i) head.push_back("x" + std::to_string(i));
  q.set_head(head);
  q.set_name("FullPath" + std::to_string(k));
  return q;
}

ConjunctiveQuery StarQuery(size_t s) {
  std::vector<std::string> head;
  for (size_t i = 1; i <= s; ++i) head.push_back("x" + std::to_string(i));
  ConjunctiveQuery q("Star" + std::to_string(s), head, {});
  for (size_t i = 1; i <= s; ++i) {
    Atom a;
    a.relation = "E" + std::to_string(i);
    a.args = {Term::Var("t"), Term::Var("x" + std::to_string(i))};
    q.AddAtom(std::move(a));
  }
  return q;
}

Database PathDatabase(size_t k, size_t tuples, Value domain, Rng* rng) {
  Database db;
  for (size_t i = 1; i <= k; ++i) {
    db.PutRelation(
        RandomRelation("E" + std::to_string(i), 2, tuples, domain, rng));
  }
  db.DeclareDomainSize(domain);
  return db;
}

ConjunctiveQuery Figure1Query() {
  return ParseConjunctiveQuery(
             "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R2(x1, y1), "
             "T(y3, y4, y5), S2(x2, y2).")
      .value();
}

Database Figure1Database(size_t tuples, Value domain, Rng* rng) {
  Database db;
  db.PutRelation(RandomRelation("R", 2, tuples, domain, rng));
  db.PutRelation(RandomRelation("S", 3, tuples, domain, rng));
  db.PutRelation(RandomRelation("R2", 2, tuples, domain, rng));
  db.PutRelation(RandomRelation("T", 3, tuples, domain, rng));
  db.PutRelation(RandomRelation("S2", 2, tuples, domain, rng));
  db.DeclareDomainSize(domain);
  return db;
}

Graph RandomGraph(int n, int m, Rng* rng) {
  Graph g(n);
  std::set<std::pair<int, int>> seen;
  int attempts = 0;
  while (static_cast<int>(g.edges.size()) < m && attempts < 20 * m + 100) {
    ++attempts;
    int u = static_cast<int>(rng->Below(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->Below(static_cast<uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) g.AddEdge(u, v);
  }
  return g;
}

Graph RandomBoundedDegreeGraph(int n, int d, Rng* rng) {
  Graph g(n);
  std::vector<int> degree(static_cast<size_t>(n), 0);
  int target_edges = n * d / 2;
  int attempts = 0;
  while (static_cast<int>(g.edges.size()) < target_edges &&
         attempts < 40 * target_edges + 100) {
    ++attempts;
    int u = static_cast<int>(rng->Below(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->Below(static_cast<uint64_t>(n)));
    if (u == v || degree[static_cast<size_t>(u)] >= d ||
        degree[static_cast<size_t>(v)] >= d || g.HasEdge(u, v)) {
      continue;
    }
    g.AddEdge(u, v);
    ++degree[static_cast<size_t>(u)];
    ++degree[static_cast<size_t>(v)];
  }
  return g;
}

Graph RandomTree(int n, Rng* rng) {
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    int parent = static_cast<int>(rng->Below(static_cast<uint64_t>(v)));
    g.AddEdge(parent, v);
  }
  return g;
}

Graph GridGraph(int m, int n) {
  Graph g(m * n);
  auto id = [n](int i, int j) { return i * n + j; };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j + 1 < n) g.AddEdge(id(i, j), id(i, j + 1));
      if (i + 1 < m) g.AddEdge(id(i, j), id(i + 1, j));
    }
  }
  return g;
}

Graph RandomPartialKTree(int n, int k, int drop_percent, Rng* rng) {
  Graph full(n);
  if (n <= k + 1) {
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) full.AddEdge(u, v);
    }
  } else {
    // Seed clique.
    std::vector<std::vector<int>> cliques;
    std::vector<int> seed;
    for (int u = 0; u <= k; ++u) {
      for (int v = u + 1; v <= k; ++v) full.AddEdge(u, v);
    }
    for (int u = 0; u < k; ++u) seed.push_back(u);
    cliques.push_back(seed);
    for (int v = k + 1; v < n; ++v) {
      // Copy: pushing new cliques below may reallocate the vector.
      const std::vector<int> base = cliques[rng->Below(cliques.size())];
      for (int u : base) full.AddEdge(u, v);
      // New k-cliques: base with one member replaced by v.
      for (size_t i = 0; i < base.size(); ++i) {
        std::vector<int> next = base;
        next[i] = v;
        cliques.push_back(next);
      }
    }
  }
  Graph g(n);
  for (const auto& [u, v] : full.edges) {
    if (static_cast<int>(rng->Below(100)) >= drop_percent) g.AddEdge(u, v);
  }
  return g;
}

Database GraphDatabase(const Graph& g) {
  Database db;
  Relation e("E", 2);
  for (const auto& [u, v] : g.edges) {
    e.Add({static_cast<Value>(u), static_cast<Value>(v)});
    e.Add({static_cast<Value>(v), static_cast<Value>(u)});
  }
  e.SortDedup();
  db.PutRelation(std::move(e));
  db.DeclareDomainSize(g.n);
  return db;
}

BipartiteGraph RandomBipartite(size_t n, size_t degree, Rng* rng) {
  BipartiteGraph g;
  g.adj.assign(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < degree; ++d) {
      g.adj[i][rng->Below(n)] = true;
    }
  }
  return g;
}

BoolMatrix RandomMatrix(size_t n, double density, Rng* rng) {
  BoolMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng->Chance(density)) m.Set(i, j, true);
    }
  }
  return m;
}

DnfFormula RandomDnf(int num_vars, int clauses, int width, Rng* rng) {
  DnfFormula dnf;
  dnf.num_vars = num_vars;
  for (int c = 0; c < clauses; ++c) {
    std::set<int> vars;
    while (static_cast<int>(vars.size()) < width) {
      vars.insert(
          static_cast<int>(rng->Below(static_cast<uint64_t>(num_vars))));
    }
    std::vector<int> clause;
    for (int v : vars) {
      clause.push_back((rng->Next() & 1) ? (v + 1) : -(v + 1));
    }
    dnf.clauses.push_back(std::move(clause));
  }
  return dnf;
}

ConjunctiveQuery RandomChainNcq(size_t vars, size_t tuples_per_relation,
                                Value domain, Database* db, Rng* rng) {
  ConjunctiveQuery q("ncq", {}, {});
  // Chain of 2-ary then 3-ary windows: not Q_i(x_i, x_{i+1}) — beta-acyclic.
  for (size_t i = 1; i + 1 <= vars; ++i) {
    std::string rel_name = "Q" + std::to_string(i);
    db->PutRelation(
        RandomRelation(rel_name, 2, tuples_per_relation, domain, rng));
    Atom a;
    a.relation = rel_name;
    a.negated = true;
    a.args = {Term::Var("x" + std::to_string(i)),
              Term::Var("x" + std::to_string(i + 1))};
    q.AddAtom(std::move(a));
  }
  db->DeclareDomainSize(domain);
  return q;
}

Database ServeWorkloadDatabase(size_t tuples, uint64_t seed) {
  Rng rng(seed);
  const Value domain = static_cast<Value>(tuples / 4 + 4);
  // Figure-1 relations...
  Database db = Figure1Database(tuples, domain, &rng);
  // ...plus a 2-path graph (E1, E2) and a unary filter B for the path and
  // lookup queries of the mix.
  db.PutRelation(RandomRelation("E1", 2, tuples, domain, &rng));
  db.PutRelation(RandomRelation("E2", 2, tuples, domain, &rng));
  db.PutRelation(RandomRelation("B", 1, tuples / 2 + 1, domain, &rng));
  return db;
}

std::vector<ServeWorkloadQuery> ServeWorkloadMix() {
  return {
      // Free-connex: constant-delay enumeration off the cached plan.
      {"Q(x) :- E1(x, y), B(x).", 4.0, "fc-lookup"},
      {"Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R2(x1, y1), "
       "T(y3, y4, y5), S2(x2, y2).",
       3.0, "figure1"},
      // General-acyclic: served from materialized cached answers.
      {"Q(x, z) :- E1(x, y), E2(y, z).", 2.0, "path2"},
      // Count verb traffic rides the same cached plans.
      {"Q(x, y) :- E1(x, y).", 1.0, "count-edges", /*count=*/true},
  };
}

}  // namespace fgq
