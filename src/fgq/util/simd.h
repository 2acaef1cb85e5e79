#ifndef FGQ_UTIL_SIMD_H_
#define FGQ_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>  // SSE2 — baseline on x86-64, no dispatch needed.
#if defined(__AVX2__) || defined(__GNUC__)
#include <immintrin.h>
#endif
#define FGQ_X86_64 1
#endif

/// \file simd.h
/// Runtime-dispatched SIMD primitives for the columnar data plane.
///
/// The hash indexes and semijoin key sets store an 8-bit tag per slot
/// (Swiss-table style): the low 7 bits of a slot's tag are bits 57..63 of
/// its key hash, and 0x80 marks an empty slot. A probe compares one
/// 32-tag group per step and walks the match bits. Three implementations
/// produce the *same* 32-bit mask for the same group bytes:
///
///   kAvx2   — one `_mm256_cmpeq_epi8` + `_mm256_movemask_epi8`,
///   kSse2   — two 16-byte `_mm_cmpeq_epi8` halves (x86-64 baseline),
///   kScalar — branch-free 8-byte SWAR, fully portable.
///
/// Because the masks are identical and insertion claims the first match
/// or empty bit in probe order, the built table layout and every probe
/// result are bit-identical across paths — the property the differential
/// fuzzer checks by re-running the corpus under FGQ_FORCE_SCALAR=1.
///
/// Dispatch is resolved once per process (cpuid + the FGQ_FORCE_SCALAR
/// override) and cached in a plain global; hot loops either read it once
/// per batch or branch on it per group, which predicts perfectly.

namespace fgq {

enum class SimdPath : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Tags are 7 hash bits; 0x80 marks an empty slot (tags never have the
/// high bit set, so the two can't collide).
inline constexpr uint8_t kEmptyTag = 0x80;
/// Tags per probe group. Shard slot capacities are powers of two >= 32,
/// so every group is fully inside one shard region.
inline constexpr size_t kTagGroupWidth = 32;

/// 7-bit tag of a key hash. Bits 57..63: the *low* hash bits address the
/// shard (6 bits) and the slot, so the tag takes the opposite end.
inline uint8_t HashTag(uint64_t h) { return static_cast<uint8_t>(h >> 57); }

/// The selected path: cpuid-based, FGQ_FORCE_SCALAR=1 forces kScalar.
/// Resolved on first call, logged to stderr once (attribution: bench and
/// serve numbers are meaningless without knowing which path ran).
SimdPath ActiveSimdPath();
const char* SimdPathName(SimdPath p);
inline const char* ActiveSimdPathName() { return SimdPathName(ActiveSimdPath()); }

namespace simd {

/// Portable SWAR tag match: 8 tags per 64-bit step, branch-free. The
/// classic zero-byte finder over `x ^ broadcast(tag)`; bit 7 of each
/// matching byte survives, then the four 8-bit results concatenate into
/// the 32-bit group mask (bit i = tag[i] matched).
__attribute__((always_inline)) inline uint32_t MatchTag32Scalar(
    const uint8_t* tags, uint8_t tag) {
  const uint64_t bcast = 0x0101010101010101ULL * tag;
  uint32_t mask = 0;
  for (size_t k = 0; k < 4; ++k) {
    uint64_t x;
    __builtin_memcpy(&x, tags + k * 8, 8);
    x ^= bcast;
    uint64_t m = (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
    // Compress the 8 high bits down to 8 adjacent bits.
    uint32_t bits = static_cast<uint32_t>((m * 0x0002040810204081ULL) >> 56);
    mask |= bits << (k * 8);
  }
  return mask;
}

/// Empty-slot mask: empty is the only byte with bit 7 set.
__attribute__((always_inline)) inline uint32_t MatchEmpty32Scalar(
    const uint8_t* tags) {
  uint32_t mask = 0;
  for (size_t k = 0; k < 4; ++k) {
    uint64_t x;
    __builtin_memcpy(&x, tags + k * 8, 8);
    uint64_t m = x & 0x8080808080808080ULL;
    uint32_t bits = static_cast<uint32_t>((m * 0x0002040810204081ULL) >> 56);
    mask |= bits << (k * 8);
  }
  return mask;
}

#ifdef FGQ_X86_64

__attribute__((always_inline)) inline uint32_t MatchTag32Sse2(
    const uint8_t* tags, uint8_t tag) {
  const __m128i b = _mm_set1_epi8(static_cast<char>(tag));
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + 16));
  const uint32_t mlo =
      static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(lo, b)));
  const uint32_t mhi =
      static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(hi, b)));
  return mlo | (mhi << 16);
}

__attribute__((always_inline)) inline uint32_t MatchEmpty32Sse2(
    const uint8_t* tags) {
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + 16));
  const uint32_t mlo = static_cast<uint32_t>(_mm_movemask_epi8(lo));
  const uint32_t mhi = static_cast<uint32_t>(_mm_movemask_epi8(hi));
  return mlo | (mhi << 16);
}

/// AVX2 variants: callable (and inlinable) only from functions themselves
/// compiled for avx2 — the batched probe kernels carry the target
/// attribute and select these under ActiveSimdPath() == kAvx2.
__attribute__((always_inline, target("avx2"))) inline uint32_t MatchTag32Avx2(
    const uint8_t* tags, uint8_t tag) {
  const __m256i b = _mm256_set1_epi8(static_cast<char>(tag));
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  return static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, b)));
}

__attribute__((always_inline, target("avx2"))) inline uint32_t
MatchEmpty32Avx2(const uint8_t* tags) {
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  return static_cast<uint32_t>(_mm256_movemask_epi8(v));
}

#endif  // FGQ_X86_64

/// Per-group dispatch for the non-batched probes (VM, delta build): SSE2
/// when available unless the scalar override is active. One global load +
/// predicted branch per group — noise next to the probe's cache misses.
/// The batched kernels in index.cc dispatch once per loop instead and add
/// the AVX2 32-byte form. Set by ActiveSimdPath(), which every
/// index/key-set build calls once, so the flag is resolved before any
/// probe runs.
extern uint32_t g_force_scalar;

__attribute__((always_inline)) inline uint32_t MatchTag32(
    const uint8_t* tags, uint8_t tag) {
#ifdef FGQ_X86_64
  if (__builtin_expect(g_force_scalar == 0, 1)) {
    return MatchTag32Sse2(tags, tag);
  }
#endif
  return MatchTag32Scalar(tags, tag);
}

__attribute__((always_inline)) inline uint32_t MatchEmpty32(
    const uint8_t* tags) {
#ifdef FGQ_X86_64
  if (__builtin_expect(g_force_scalar == 0, 1)) {
    return MatchEmpty32Sse2(tags);
  }
#endif
  return MatchEmpty32Scalar(tags);
}

/// Tag-match policies for the probe templates. The default follows the
/// per-group runtime dispatch above; Avx2TagOps pins the 32-byte form and
/// is only instantiated inside the -mavx2 kernel translation unit (its
/// members carry the avx2 target attribute, so a default-target caller
/// cannot inline them — GCC rejects that at compile time, which is the
/// guard rail).
struct AutoTagOps {
  __attribute__((always_inline)) static uint32_t Match(const uint8_t* tags,
                                                       uint8_t tag) {
    return MatchTag32(tags, tag);
  }
  __attribute__((always_inline)) static uint32_t Empty(const uint8_t* tags) {
    return MatchEmpty32(tags);
  }
};

#ifdef FGQ_X86_64
struct Avx2TagOps {
  __attribute__((always_inline, target("avx2"))) static uint32_t Match(
      const uint8_t* tags, uint8_t tag) {
    return MatchTag32Avx2(tags, tag);
  }
  __attribute__((always_inline, target("avx2"))) static uint32_t Empty(
      const uint8_t* tags) {
    return MatchEmpty32Avx2(tags);
  }
};
#endif  // FGQ_X86_64

}  // namespace simd
}  // namespace fgq

#endif  // FGQ_UTIL_SIMD_H_
