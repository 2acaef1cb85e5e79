#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "fgq/eval/engine.h"
#include "fgq/query/parser.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto q = ParseConjunctiveQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

// ExecRequest keeps a pointer to its query, so a temporary query must not
// bind to it.
static_assert(!std::is_constructible_v<ExecRequest, ConjunctiveQuery&&,
                                       const Database&>);
static_assert(!std::is_constructible_v<ExecRequest, ConjunctiveQuery&&,
                                       std::shared_ptr<const Snapshot>>);
static_assert(std::is_constructible_v<ExecRequest, const ConjunctiveQuery&,
                                      const Database&>);

struct GoldenCase {
  const char* text;
  QueryClass expected;
};

// A golden corpus pinning Engine::Classify across all seven classes. The
// service keys admission (heavy vs light lane) and metrics on this
// classification, so silent drift here would change serving behavior.
const GoldenCase kGolden[] = {
    // Boolean acyclic: no free variables, acyclic body.
    {"Q() :- E(x, y).", QueryClass::kBooleanAcyclic},
    {"Q() :- E(x, y), F(y, z).", QueryClass::kBooleanAcyclic},
    // Free-connex: quantifier-free queries, single atoms, and heads whose
    // variables form a connected extension of the join tree.
    {"Q(x, y) :- E(x, y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x) :- E(x, y), B(y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x, y, z) :- E(x, y), F(y, z).", QueryClass::kFreeConnexAcyclic},
    // General acyclic: the path query with existential middle (the
    // paper's canonical non-free-connex example).
    {"Q(x, z) :- E(x, y), F(y, z).", QueryClass::kGeneralAcyclic},
    {"Q(x, w) :- E(x, y), F(y, z), G(z, w).", QueryClass::kGeneralAcyclic},
    // Acyclic with only disequalities (ACQ_!=, Theorem 4.20 territory).
    {"Q(x, y) :- E(x, y), x != y.", QueryClass::kAcyclicDisequalities},
    // Any order comparison puts the query in the W[1]-hard fragment.
    {"Q(x, y) :- E(x, y), x < y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x <= y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x < y, x != y.",
     QueryClass::kAcyclicOrderComparisons},
    // Negation dominates every other feature.
    {"Q(x) :- E(x, y), not B(y).", QueryClass::kNegated},
    {"Q() :- E(x, y), not E(y, x).", QueryClass::kNegated},
    // Cyclic: triangle and 4-cycle.
    {"Q(x) :- E(x, y), F(y, z), G(z, x).", QueryClass::kCyclic},
    {"Q() :- E(x, y), F(y, z), G(z, w), H(w, x).", QueryClass::kCyclic},
};

TEST(EngineClassify, GoldenCorpus) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_EQ(Engine::Classify(Q(c.text)), c.expected)
        << c.text << " expected " << QueryClassName(c.expected) << " got "
        << QueryClassName(Engine::Classify(Q(c.text)));
  }
}

TEST(EngineClassify, CoversAllSevenClasses) {
  std::vector<bool> seen(7, false);
  for (const GoldenCase& c : kGolden) {
    seen[static_cast<size_t>(c.expected)] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "class " << i << " ("
                         << QueryClassName(static_cast<QueryClass>(i))
                         << ") missing from the golden corpus";
  }
}

TEST(EngineClassify, NamesAreStable) {
  EXPECT_STREQ(QueryClassName(QueryClass::kBooleanAcyclic),
               "boolean-acyclic");
  EXPECT_STREQ(QueryClassName(QueryClass::kFreeConnexAcyclic), "free-connex");
  EXPECT_STREQ(QueryClassName(QueryClass::kGeneralAcyclic), "general-acyclic");
  EXPECT_STREQ(QueryClassName(QueryClass::kAcyclicDisequalities),
               "acyclic-disequalities");
  EXPECT_STREQ(QueryClassName(QueryClass::kAcyclicOrderComparisons),
               "acyclic-order-comparisons");
  EXPECT_STREQ(QueryClassName(QueryClass::kNegated), "negated");
  EXPECT_STREQ(QueryClassName(QueryClass::kCyclic), "cyclic");
}

}  // namespace
}  // namespace fgq
