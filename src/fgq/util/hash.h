#ifndef FGQ_UTIL_HASH_H_
#define FGQ_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file hash.h
/// Hashing helpers shared by indexes, tries and deduplication sets.

namespace fgq {

/// Mixes a 64-bit value (splittable-random finalizer). Good avalanche for
/// sequential keys, which dominate dictionary-encoded databases.
/// always_inline, like HashCombine: the index probes inline through them
/// into every hot loop (the VM cursor's included), and GCC's unit-wide
/// inlining budget otherwise decides per translation unit.
__attribute__((always_inline)) inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines a hash with the next value, order-sensitive.
__attribute__((always_inline)) inline uint64_t HashCombine(uint64_t seed,
                                                         uint64_t v) {
  return Mix64(seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// Hashes a span of 64-bit values (e.g. a tuple or key prefix).
inline uint64_t HashSpan(const int64_t* data, size_t n) {
  uint64_t h = 0x51ed270b0a4725a3ULL;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, static_cast<uint64_t>(data[i]));
  }
  return h;
}

/// std::hash-compatible functor for vector<int64_t> keys.
struct VecHash {
  size_t operator()(const std::vector<int64_t>& v) const {
    return static_cast<size_t>(HashSpan(v.data(), v.size()));
  }
};

}  // namespace fgq

#endif  // FGQ_UTIL_HASH_H_
