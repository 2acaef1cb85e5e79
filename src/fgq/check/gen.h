#ifndef FGQ_CHECK_GEN_H_
#define FGQ_CHECK_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/db/snapshot.h"
#include "fgq/query/cq.h"
#include "fgq/util/random.h"

/// \file gen.h
/// Random query and database generation for the differential fuzzer.
///
/// Every generator is a pure function of its Rng: the same seed always
/// yields the same (query, database) pair on every platform, so a failing
/// case is reproducible from its seed alone. Queries are generated *per
/// structural class* — the paper assigns each class its own algorithm
/// (semijoin sweep, constant-delay plan, Yannakakis, witness elimination,
/// backtracking), and a fuzzer that only ever produced easy free-connex
/// queries would leave most of those code paths untested.
///
/// Acyclic bodies are built tree-shaped: each new atom shares variables
/// with exactly one previously generated atom, which guarantees a join
/// tree exists (GYO succeeds) by construction. Class-specific decoration
/// (head choice, comparisons, negated atoms, extra cyclic atoms) follows,
/// and the result is re-checked against Engine::Classify — with a bounded
/// retry loop — so each generated query provably lands in its target
/// class.

namespace fgq {

/// The query populations the fuzzer draws from. The first seven mirror
/// fgq::QueryClass (every Engine dispatch target); kUnion additionally
/// exercises the UCQ union-extension enumerator.
enum class FuzzClass {
  kBooleanAcyclic = 0,
  kFreeConnex,
  kGeneralAcyclic,
  kDisequalities,
  kOrderComparisons,
  kNegated,
  kCyclic,
  kUnion,
};

inline constexpr size_t kNumFuzzClasses = 8;

/// Stable name used in reports and --classes flags ("free-connex", ...).
const char* FuzzClassName(FuzzClass c);

/// Parses a FuzzClassName back; returns false for unknown names.
bool FuzzClassFromName(const std::string& name, FuzzClass* out);

/// Size and shape knobs for generated cases. The defaults keep the
/// brute-force reference evaluator comfortably inside its assignment
/// budget (domain^max_vars about 50k) while still producing empty
/// relations, constants, repeated variables, self-joins and skewed data.
struct FuzzOptions {
  size_t max_atoms = 4;     ///< Positive atoms per conjunctive query.
  size_t max_arity = 3;     ///< Max columns per relation.
  size_t max_vars = 6;      ///< Distinct variables per disjunct.
  Value domain = 6;         ///< Values are drawn from [0, domain).
  size_t max_tuples = 14;   ///< Max tuples per generated relation.
  double skew = 0.4;        ///< P(tuple drawn from the hot third of the domain).
  double constant_prob = 0.12;   ///< P(an atom argument is a constant).
  double repeat_var_prob = 0.2;  ///< P(reusing a variable already in the atom).
  double self_join_prob = 0.15;  ///< P(an atom reuses an earlier relation).
  double empty_relation_prob = 0.08;  ///< P(a relation gets zero tuples).
  /// P(a relation is generated key-collapsed: one random column pinned to
  /// a single value and the rest drawn from a two-value set). Maximizes
  /// duplicate keys and hash collisions — the worst case for the
  /// open-addressing CSR index and the flat semijoin key sets.
  double heavy_dup_prob = 0.15;
  size_t max_disjuncts = 3;      ///< Disjuncts per generated union query.
  /// Assignment budget of the reference evaluator; cases whose
  /// domain^vars exceeds it are skipped (never silently mis-checked).
  size_t reference_limit = 4'000'000;
  /// Thread count of the parallel Engine path in the differential runner.
  int parallel_threads = 8;
  /// Include the QueryService paths (cold / cache-hit / post-mutation /
  /// count verb) in the differential runner.
  bool include_service = true;
  /// Include the fgq::net loopback paths (rows / count / enumerate-limit
  /// verbs through a real socket server) in the differential runner. Off
  /// by default: a server per case costs a TCP round trip and thread
  /// startup; the corpus replay and the dedicated net fuzz turn it on.
  bool include_net = false;
  /// Include the semiring paths in the differential runner: for every
  /// SemiringId, Engine::SumProduct and (on plain acyclic cases) the
  /// compiled fold's own entry (SemiringSumAcq) are diffed against the
  /// aggregate folded over the brute-force answer set, cross-semiring
  /// invariants are checked (every instance's Truthy() agrees with
  /// Boolean; top-k's best equals min-plus), and the count verb is served per semiring (cold + cache hit — exercises the
  /// plan-cache semiring keying).
  bool include_semiring = true;
  /// Include the mutation paths: `mutation_batches` insert/delete batches
  /// applied through a SnapshotStore, with every answer diffed against
  /// the brute-force reference *at the epoch the response reports* —
  /// first sequentially (query / apply / query), then with a concurrent
  /// writer racing the reads (single-writer linearizability). Maintained
  /// hash indexes are additionally diffed against fresh builds after
  /// every batch.
  bool include_mutation = true;
  /// Mutation batches per case (each publishes one epoch).
  size_t mutation_batches = 3;
};

/// Generates one conjunctive query in the target class. The result always
/// satisfies Validate() and Engine::Classify maps it to the corresponding
/// QueryClass (kUnion is not a valid argument here; see GenerateFuzzUnion).
ConjunctiveQuery GenerateFuzzQuery(FuzzClass cls, const FuzzOptions& opt,
                                   Rng* rng);

/// Generates a multi-disjunct union of plain acyclic queries sharing one
/// head arity. Disjuncts are biased toward free-connex but may require
/// union extension (Definition 4.12) to enumerate.
UnionQuery GenerateFuzzUnion(const FuzzOptions& opt, Rng* rng);

/// Generates a database providing every relation mentioned by `u` (one
/// entry per distinct relation symbol, arity taken from its first
/// occurrence), with skewed value distribution and occasional empty
/// relations. Declares the domain so that variables constrained only by
/// negated atoms or comparisons range identically in every evaluator.
Database GenerateFuzzDatabase(const UnionQuery& u, const FuzzOptions& opt,
                              Rng* rng);

/// Generates one mutation batch over the relations `u` mentions and `db`
/// provides: deletes drawn from the relation's current rows, inserts
/// drawn with the same skewed distribution as GenerateFuzzDatabase. At
/// least one relation is always touched. Pure function of the Rng state,
/// like every other generator here.
MutationBatch GenerateMutationBatch(const UnionQuery& u, const Database& db,
                                    const FuzzOptions& opt, Rng* rng);

}  // namespace fgq

#endif  // FGQ_CHECK_GEN_H_
