#ifndef FGQ_DB_DATABASE_H_
#define FGQ_DB_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fgq/db/relation.h"
#include "fgq/util/status.h"

/// \file database.h
/// A database is a finite relational structure: a set of named relations
/// over a shared integer domain (Section 2.1 of the paper).

namespace fgq {

/// A finite relational structure.
///
/// Mutation is not thread-safe and must not race with readers. To serve a
/// database under concurrent mutation, hand it to a SnapshotStore
/// (db/snapshot.h): readers pin immutable epochs, writers publish new
/// ones.
///
/// Relations are stored behind shared immutable payloads with
/// copy-on-write semantics: copying a Database is O(#relations) pointer
/// copies, and mutators clone a relation's payload only when another
/// Database copy (or a pinned Snapshot) still references it. Value
/// semantics are preserved — a copy never observes writes made through
/// the original, and vice versa.
class Database {
 public:
  /// Adds a relation; fails if a relation with the same name exists.
  Status AddRelation(Relation rel);

  /// Adds or replaces a relation.
  void PutRelation(Relation rel);

  /// Adds or replaces a relation, sharing an existing immutable payload
  /// without copying its rows. `rel` must be non-null and must originate
  /// from a Database (so copy-on-write stays well-defined); later
  /// mutation through FindMutable clones before writing as usual.
  void PutRelationShared(std::shared_ptr<const Relation> rel);

  /// Looks up a relation by name.
  Result<const Relation*> Find(const std::string& name) const;

  /// Looks up a relation's shared payload by name; the returned pointer
  /// keeps the relation alive independently of this Database (used by the
  /// snapshot layer to pin relations across mutations). Null when absent.
  std::shared_ptr<const Relation> FindShared(const std::string& name) const;

  /// Mutable lookup (used by rewriting passes that enrich the database).
  /// If the relation payload is shared with a Database copy or Snapshot,
  /// it is cloned first (copy-on-write), so writes through the pointer
  /// are never visible outside this Database. The pointer is invalidated by
  /// any later copy/mutation of this Database.
  Result<Relation*> FindMutable(const std::string& name);

  bool Has(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// Name -> shared immutable payload. Iterate as
  /// `for (const auto& [name, rel] : db.relations())` with `rel` a
  /// `std::shared_ptr<const Relation>`.
  const std::map<std::string, std::shared_ptr<const Relation>>& relations()
      const {
    return relations_;
  }

  /// Number of distinct domain elements assumed: 1 + the largest value in
  /// any relation, unless a larger domain was declared explicitly.
  Value DomainSize() const;

  /// Declares that the domain is [0, n) even if not all values occur.
  void DeclareDomainSize(Value n) { declared_domain_ = n; }

  /// ||D|| in the paper's size measure (Section 2.1).
  size_t SizeWeight() const;

  /// The degree of the structure: the maximum over domain elements of the
  /// number of tuples the element appears in (Section 3.1).
  size_t Degree() const;

  std::string ToString(size_t per_relation_limit = 10) const;

 private:
  std::map<std::string, std::shared_ptr<const Relation>> relations_;
  Value declared_domain_ = 0;
};

}  // namespace fgq

#endif  // FGQ_DB_DATABASE_H_
