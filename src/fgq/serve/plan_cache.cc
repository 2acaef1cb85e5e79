#include "fgq/serve/plan_cache.h"

#include <utility>

namespace fgq {

namespace {

/// Appends the positional name of variable `var` ("v0", "v1", ... in
/// first-sight order), assigning the next one on first sight. `names`
/// points into the query being rendered. Queries have a handful of
/// variables, so a linear scan beats hashing them.
void AppendVar(const std::string& var, std::vector<const std::string*>* names,
               std::string* out) {
  size_t i = 0;
  while (i < names->size() && *(*names)[i] != var) ++i;
  if (i == names->size()) names->push_back(&var);
  out->push_back('v');
  out->append(std::to_string(i));
}

/// Appends the canonical spelling of `t`: its renamed variable or its
/// literal constant.
void AppendTerm(const Term& t, std::vector<const std::string*>* names,
                std::string* out) {
  if (t.is_var()) {
    AppendVar(t.var, names, out);
  } else {
    out->append(std::to_string(t.constant));
  }
}

}  // namespace

std::string CanonicalQueryText(const ConjunctiveQuery& q) {
  std::vector<const std::string*> names;
  std::string out;
  out.reserve(q.SizeWeight() * 4);
  // The head first: head order defines the output columns, so it also
  // drives the positional renaming.
  out.push_back('(');
  for (size_t i = 0; i < q.head().size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendVar(q.head()[i], &names, &out);
  }
  out.push_back(')');
  for (const Atom& a : q.atoms()) {
    out.push_back(a.negated ? '!' : ',');
    out.append(a.relation);
    out.push_back('(');
    for (size_t j = 0; j < a.args.size(); ++j) {
      if (j > 0) out.push_back(',');
      AppendTerm(a.args[j], &names, &out);
    }
    out.push_back(')');
  }
  for (const Comparison& c : q.comparisons()) {
    out.push_back(';');
    AppendVar(c.lhs, &names, &out);
    switch (c.op) {
      case Comparison::Op::kLess:
        out.push_back('<');
        break;
      case Comparison::Op::kLessEq:
        out.append("<=");
        break;
      case Comparison::Op::kNotEqual:
        out.append("!=");
        break;
    }
    AppendVar(c.rhs, &names, &out);
  }
  return out;
}

PlanKey MakePlanKey(const ConjunctiveQuery& q, const Snapshot& snap) {
  PlanKey key;
  key.canonical = CanonicalQueryText(q);
  // Distinct relations in first-mention order. Queries are small (a
  // handful of atoms), so a linear scan beats a set.
  std::vector<const std::string*> seen;
  for (const Atom& a : q.atoms()) {
    bool dup = false;
    for (const std::string* s : seen) {
      if (*s == a.relation) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen.push_back(&a.relation);
    key.rel_epochs.push_back(snap.RelationEpoch(a.relation));
  }
  return key;
}

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const CachedPlan> PlanCache::Get(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

std::shared_ptr<const CachedPlan> PlanCache::Peek(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second->plan;
}

bool PlanCache::Touch(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void PlanCache::Put(const PlanKey& key, std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Replace path: the existing list node is updated in place and
    // spliced to the front — the map keeps pointing at the same node, so
    // map and list never disagree (no orphaned node to leak or
    // double-count; asserted by serve_test PlanCachePutReplace).
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  map_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace fgq
