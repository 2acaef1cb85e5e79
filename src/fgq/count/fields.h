#ifndef FGQ_COUNT_FIELDS_H_
#define FGQ_COUNT_FIELDS_H_

#include <cstdint>
#include <functional>

#include "fgq/db/value.h"
#include "fgq/util/bigint.h"

/// \file fields.h
/// Coefficient fields for weighted counting (Section 4.4).
///
/// The weighted counting problem #F-ACQ sums, over all answers, the
/// product of per-element weights drawn from a field F. A field is one
/// more commutative semiring (semiring.h): every carrier here has the
/// semiring instance shape (Zero/One/Plus/Times/Weight) and holds its
/// weight function, so the one join-tree pass (SumProductAcq in
/// acq_count.h, which folds with vm::Fold) serves it directly. Plain counting is weighted counting
/// over the integers with all weights 1 (CountingSemiring).

namespace fgq {

/// IEEE doubles (the "numerical aggregation" instantiation).
struct DoubleField {
  using ValueType = double;
  std::function<double(Value)> weight;
  ValueType Zero() const { return 0.0; }
  ValueType One() const { return 1.0; }
  ValueType Plus(ValueType a, ValueType b) const { return a + b; }
  ValueType Times(ValueType a, ValueType b) const { return a * b; }
  ValueType Weight(Value v) const { return weight(v); }
};

/// The prime field Z_p (used to check the fold against overflow-free
/// modular arithmetic; p must be prime and < 2^31 so products fit).
template <uint64_t P>
struct ModField {
  using ValueType = uint64_t;
  std::function<uint64_t(Value)> weight;
  ValueType Zero() const { return 0; }
  ValueType One() const { return 1 % P; }
  ValueType Plus(ValueType a, ValueType b) const { return (a + b) % P; }
  ValueType Times(ValueType a, ValueType b) const { return (a * b) % P; }
  ValueType Weight(Value v) const { return weight(v) % P; }
};

/// Exact integers of arbitrary size (answer counts are products of
/// relation sizes and overflow machine words quickly).
struct BigIntField {
  using ValueType = BigInt;
  std::function<BigInt(Value)> weight;
  ValueType Zero() const { return BigInt(0); }
  ValueType One() const { return BigInt(1); }
  ValueType Plus(const ValueType& a, const ValueType& b) const { return a + b; }
  ValueType Times(const ValueType& a, const ValueType& b) const {
    return a * b;
  }
  ValueType Weight(Value v) const { return weight(v); }
};

/// 64-bit wrap-around integers (fast path when the caller knows counts
/// fit; also usable as Z_2^64 for property tests).
struct Int64Field {
  using ValueType = int64_t;
  std::function<int64_t(Value)> weight;
  ValueType Zero() const { return 0; }
  ValueType One() const { return 1; }
  ValueType Plus(ValueType a, ValueType b) const { return a + b; }
  ValueType Times(ValueType a, ValueType b) const { return a * b; }
  ValueType Weight(Value v) const { return weight(v); }
};

}  // namespace fgq

#endif  // FGQ_COUNT_FIELDS_H_
