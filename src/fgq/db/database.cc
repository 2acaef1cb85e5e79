#include "fgq/db/database.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace fgq {

Status Database::AddRelation(Relation rel) {
  std::string name = rel.name();
  auto [it, inserted] = relations_.try_emplace(
      name, std::make_shared<Relation>(std::move(rel)));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  return Status::OK();
}

void Database::PutRelation(Relation rel) {
  std::string name = rel.name();
  relations_.insert_or_assign(std::move(name),
                              std::make_shared<Relation>(std::move(rel)));
}

void Database::PutRelationShared(std::shared_ptr<const Relation> rel) {
  std::string name = rel->name();
  relations_.insert_or_assign(std::move(name), std::move(rel));
}

Result<const Relation*> Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  return it->second.get();
}

std::shared_ptr<const Relation> Database::FindShared(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  return it->second;
}

Result<Relation*> Database::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  // Copy-on-write: clone when any other Database copy or Snapshot still
  // holds the payload. A concurrent reader can only *drop* a reference
  // (use_count observed high clones unnecessarily — safe); acquiring a
  // new reference is a mutator-side operation and mutation is
  // single-threaded by contract.
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Relation>(*it->second);
  }
  return const_cast<Relation*>(it->second.get());
}

Value Database::DomainSize() const {
  Value m = declared_domain_;
  for (const auto& [name, rel] : relations_) {
    m = std::max(m, rel->MaxValue() + 1);
  }
  return m;
}

size_t Database::SizeWeight() const {
  size_t total = relations_.size() + static_cast<size_t>(DomainSize());
  for (const auto& [name, rel] : relations_) total += rel->SizeWeight();
  return total;
}

size_t Database::Degree() const {
  std::unordered_map<Value, size_t> deg;
  for (const auto& [name, relp] : relations_) {
    const Relation& rel = *relp;
    const size_t n = rel.NumTuples();
    const size_t k = rel.arity();
    std::vector<const Value*> cols(k);
    for (size_t c = 0; c < k; ++c) cols[c] = rel.Column(c);
    for (size_t i = 0; i < n; ++i) {
      // An element's degree counts tuples, not positions: dedup positions
      // within one tuple.
      for (size_t j = 0; j < k; ++j) {
        bool seen_before = false;
        for (size_t l = 0; l < j; ++l) {
          if (cols[l][i] == cols[j][i]) {
            seen_before = true;
            break;
          }
        }
        if (!seen_before) ++deg[cols[j][i]];
      }
    }
  }
  size_t m = 0;
  for (const auto& [v, d] : deg) m = std::max(m, d);
  return m;
}

std::string Database::ToString(size_t per_relation_limit) const {
  std::ostringstream os;
  os << "Database(|dom|=" << DomainSize() << ", ||D||=" << SizeWeight() << ")";
  for (const auto& [name, rel] : relations_) {
    os << "\n" << rel->ToString(per_relation_limit);
  }
  return os.str();
}

}  // namespace fgq
