#include <gtest/gtest.h>

#include <string>

#include "fgq/hypergraph/hypergraph.h"
#include "fgq/mso/courcelle.h"
#include "fgq/query/parser.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// ---- Beta elimination order property -------------------------------------------

TEST(BetaOrder, EliminationOrderIsANestPointSequence) {
  // Replay the elimination order and check the nest-point condition holds
  // at each step.
  auto q = ParseConjunctiveQuery("Q() :- A(x), B(x, y), C(x, y, z), D(z, w).");
  Hypergraph hg = Hypergraph::FromQuery(*q);
  BetaResult r = BetaAcyclicity(hg);
  ASSERT_TRUE(r.beta_acyclic);
  ASSERT_EQ(r.elimination_order.size(), hg.NumVertices());

  std::vector<std::set<int>> sets(hg.NumEdges());
  for (size_t e = 0; e < hg.NumEdges(); ++e) {
    sets[e].insert(hg.Edge(static_cast<int>(e)).begin(),
                   hg.Edge(static_cast<int>(e)).end());
  }
  for (int v : r.elimination_order) {
    std::vector<const std::set<int>*> containing;
    for (size_t e = 0; e < sets.size(); ++e) {
      if (sets[e].count(v)) containing.push_back(&sets[e]);
    }
    std::sort(containing.begin(), containing.end(),
              [](const std::set<int>* a, const std::set<int>* b) {
                return a->size() < b->size();
              });
    for (size_t i = 0; i + 1 < containing.size(); ++i) {
      EXPECT_TRUE(std::includes(containing[i + 1]->begin(),
                                containing[i + 1]->end(),
                                containing[i]->begin(),
                                containing[i]->end()))
          << "vertex " << v << " was not a nest point at its turn";
    }
    for (auto& s : sets) s.erase(v);
  }
}

// ---- ToString smoke tests (debug surfaces stay usable) --------------------------

TEST(ToString, RelationAndDatabase) {
  Relation r("R", 2);
  r.Add({1, 2});
  EXPECT_NE(r.ToString().find("R/2"), std::string::npos);
  Database db;
  db.PutRelation(r);
  EXPECT_NE(db.ToString().find("|dom|=3"), std::string::npos);
}

TEST(ToString, HypergraphAndJoinTree) {
  auto q = ParseConjunctiveQuery("Q(x) :- R(x, y), S(y).");
  Hypergraph hg = Hypergraph::FromQuery(*q);
  EXPECT_NE(hg.ToString().find("E=2"), std::string::npos);
  GyoResult gyo = GyoReduce(hg);
  ASSERT_TRUE(gyo.acyclic);
  EXPECT_FALSE(gyo.tree.ToString(hg).empty());
}

TEST(ToString, QueryRendering) {
  auto q = ParseConjunctiveQuery("Q(x) :- R(x, 3), not T(x), x != y, S(y).");
  std::string s = q->ToString();
  EXPECT_NE(s.find("not T(x)"), std::string::npos);
  EXPECT_NE(s.find("x != y"), std::string::npos);
  EXPECT_NE(s.find("R(x, 3)"), std::string::npos);
}

// ---- Vertex covers via complementation ------------------------------------------

TEST(VertexCovers, MatchesBruteForceComplement) {
  Rng rng(401);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = RandomGraph(9, 12, &rng);
    TreeDecomposition td = DecomposeMinDegree(g);
    auto vc = CountVertexCovers(g, td);
    ASSERT_TRUE(vc.ok());
    // Brute force vertex covers.
    int64_t brute = 0;
    for (uint64_t mask = 0; mask < (uint64_t{1} << g.n); ++mask) {
      bool cover = true;
      for (const auto& [u, v] : g.edges) {
        if (!((mask >> u) & 1) && !((mask >> v) & 1)) {
          cover = false;
          break;
        }
      }
      if (cover) ++brute;
    }
    EXPECT_EQ(vc->ToString(), std::to_string(brute)) << "trial " << trial;
  }
}

// ---- Nested FO quantifiers through the parser ------------------------------------

TEST(FoParser, AlternatingQuantifiers) {
  auto f = ParseFoFormula("forall x. exists y. (E(x, y) & forall z. "
                          "(E(y, z) | z = x))");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->QuantifierDepth(), 3u);
  EXPECT_TRUE((*f)->FreeVariables().empty());
}

// ---- Generator sanity -------------------------------------------------------------

TEST(Generators, BoundedDegreeRespectsBound) {
  Rng rng(402);
  for (int d : {2, 5}) {
    Graph g = RandomBoundedDegreeGraph(200, d, &rng);
    for (int v = 0; v < g.n; ++v) {
      EXPECT_LE(g.adj[static_cast<size_t>(v)].size(),
                static_cast<size_t>(d));
    }
  }
}

TEST(Generators, RandomTreeIsConnectedAcyclic) {
  Rng rng(403);
  Graph t = RandomTree(50, &rng);
  EXPECT_EQ(t.edges.size(), 49u);
  TreeDecomposition td = DecomposeMinDegree(t);
  EXPECT_LE(td.Width(), 1u);
}

TEST(Generators, PathQueryShapes) {
  ConjunctiveQuery p3 = PathQuery(3);
  EXPECT_EQ(p3.arity(), 2u);
  EXPECT_EQ(p3.atoms().size(), 3u);
  EXPECT_EQ(FullPathQuery(3).arity(), 4u);
  EXPECT_EQ(StarQuery(4).ExistentialVariables(),
            (std::vector<std::string>{"t"}));
}

TEST(Generators, RandomDnfRespectsWidth) {
  Rng rng(404);
  DnfFormula dnf = RandomDnf(20, 15, 3, &rng);
  EXPECT_EQ(dnf.clauses.size(), 15u);
  for (const auto& c : dnf.clauses) {
    EXPECT_EQ(c.size(), 3u);
    for (int lit : c) {
      EXPECT_NE(lit, 0);
      EXPECT_LE(std::abs(lit), 20);
    }
  }
}

}  // namespace
}  // namespace fgq
