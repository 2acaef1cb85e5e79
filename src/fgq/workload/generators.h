#ifndef FGQ_WORKLOAD_GENERATORS_H_
#define FGQ_WORKLOAD_GENERATORS_H_

#include <cstddef>

#include "fgq/count/matchings.h"
#include "fgq/db/database.h"
#include "fgq/eval/bmm.h"
#include "fgq/mso/tree_decomposition.h"
#include "fgq/query/cq.h"
#include "fgq/so/sigma_count.h"
#include "fgq/util/random.h"

/// \file generators.h
/// Synthetic workload generators shared by tests, examples and benchmarks.
///
/// The paper has no experimental datasets (it is a theory survey), so every
/// benchmark in EXPERIMENTS.md runs on synthetic inputs generated here:
/// random relations and graphs with controlled size/degree/selectivity,
/// the query families the survey uses as running examples (paths, stars,
/// the Figure-1 query, the matrix query), plus DNF formulas and bipartite
/// graphs for Section 5 and Equation (2).

namespace fgq {

/// A random k-ary relation with `tuples` tuples over domain [0, domain).
Relation RandomRelation(const std::string& name, size_t arity, size_t tuples,
                        Value domain, Rng* rng);

/// The path query P_k(x1, x_{k+1}) :- E1(x1,x2), ..., Ek(xk, x_{k+1}),
/// with all intermediate variables existential. Acyclic; free-connex
/// for k = 1 and NOT free-connex for k >= 2.
ConjunctiveQuery PathQuery(size_t k);

/// The full path query with every variable free (quantifier-free,
/// free-connex).
ConjunctiveQuery FullPathQuery(size_t k);

/// The star query S_s(x1..xs) :- E1(t, x1), ..., Es(t, xs) with the
/// center t existential: acyclic with quantified star size s.
ConjunctiveQuery StarQuery(size_t s);

/// A database on which PathQuery/StarQuery over relations E1..Ek have
/// controlled size: each Ei gets `tuples` random pairs over [0, domain).
Database PathDatabase(size_t k, size_t tuples, Value domain, Rng* rng);

/// The Figure 1 query of the paper:
/// Q(x1,x2,x3) :- R(x1,x2), S(x2,x3,y3), R2(x1,y1), T(y3,y4,y5), S2(x2,y2).
/// Acyclic and free-connex.
ConjunctiveQuery Figure1Query();

/// A database for Figure1Query with `tuples` rows per relation.
Database Figure1Database(size_t tuples, Value domain, Rng* rng);

/// A random undirected graph with n vertices and m edges (no duplicates).
Graph RandomGraph(int n, int m, Rng* rng);

/// A random graph of maximum degree <= d (greedy edge insertion).
Graph RandomBoundedDegreeGraph(int n, int d, Rng* rng);

/// A random tree on n vertices (uniform attachment).
Graph RandomTree(int n, Rng* rng);

/// The (m, n)-grid of Section 3.3: vertices {0..m-1} x {0..n-1} with
/// horizontal and vertical unit edges. Sparse but of treewidth min(m, n)
/// — the paper's witness that MSO tractability cannot go beyond bounded
/// treewidth (grids encode space-bounded Turing computations).
Graph GridGraph(int m, int n);

/// A partial k-tree: starts from a (k+1)-clique and repeatedly attaches a
/// new vertex to a random k-clique of the current graph, then deletes
/// `drop_percent` of edges. Treewidth <= k.
Graph RandomPartialKTree(int n, int k, int drop_percent, Rng* rng);

/// Encodes a graph as a database with binary relation E (symmetric).
Database GraphDatabase(const Graph& g);

/// A random bipartite graph where each left vertex gets `degree` random
/// right neighbors.
BipartiteGraph RandomBipartite(size_t n, size_t degree, Rng* rng);

/// A random Boolean matrix with the given density in [0, 1].
BoolMatrix RandomMatrix(size_t n, double density, Rng* rng);

/// A random DNF formula: `clauses` clauses of `width` literals over
/// `num_vars` variables.
DnfFormula RandomDnf(int num_vars, int clauses, int width, Rng* rng);

/// A random beta-acyclic NCQ instance: a chain-shaped negative query
/// not Q1(x1,x2), not Q2(x1,x2,x3), ..., plus the database of forbidden
/// tuples with the requested density. Returns the query; relations are
/// added to `db`.
ConjunctiveQuery RandomChainNcq(size_t vars, size_t tuples_per_relation,
                                Value domain, Database* db, Rng* rng);

/// One query of a serving mix, as wire-ready text plus its weight. The
/// weights are relative (they need not sum to anything); a load generator
/// draws queries proportionally.
struct ServeWorkloadQuery {
  std::string text;    ///< Parseable rule, e.g. "Q(x) :- E(x, y), B(y).".
  double weight = 1;   ///< Relative frequency in the mix.
  const char* label;   ///< Short name for reports ("figure1", "path2", ...).
  bool count = false;  ///< True: issue as a count request, not rows.
};

/// The database every ServeWorkloadMix query runs against: the Figure-1
/// relations plus E1/E2 path relations and a unary B, all sized by
/// `tuples` and drawn deterministically from `seed`. One database serves
/// the whole mix so a socket server can be pointed at a single immutable
/// snapshot.
Database ServeWorkloadDatabase(size_t tuples, uint64_t seed);

/// The default serving query mix used by fgq_loadgen and the CI smoke:
/// weighted toward the cheap classes (free-connex point lookups and the
/// Figure-1 query) with a minority of general-acyclic and count traffic —
/// a read-mostly OLTP-ish shape where the paper's per-class budgets are
/// visible as separate latency modes.
std::vector<ServeWorkloadQuery> ServeWorkloadMix();

}  // namespace fgq

#endif  // FGQ_WORKLOAD_GENERATORS_H_
