// Portable SIMD primitives for the hot insert path.
//
// Four things live here:
//   1. Prefetch — the cache-line prefetch wrapper the batched insert window
//      (core/quantile_filter.h) issues for each item's candidate bucket.
//   2. FindU32 / ProbeU32 — the F14/cuckoo-filter-style bucket probe over a
//      short uint32_t array. FindU32 finds the first lane equal to a target,
//      exiting at the first vector that holds one; ProbeU32 finds that lane
//      and the first zero lane from one load of the lanes and one compare
//      pair, the candidate part's "resident or room?" in one pass. One
//      vector load covers a whole 6-entry candidate bucket on AVX2 (two on
//      SSE2); the scalar fallback is bit-identical, so results never depend
//      on the ISA.
//   3. SelectMask / FirstMinI32 — branch-free selection through all-ones
//      masks, for choices on random data (the election victim, the
//      median of the sketch rows) where a branch would mispredict; and
//      ForEachLane, a loop over a few lanes that is spelled out when the
//      count is a compile-time constant (GCC -O2 keeps 3- and 6-trip loops
//      rolled).
//   4. SatAddBlockI16 / SatAddBlockI8 — lane-wise saturating add of one
//      64-byte counter block, the merge kernel of the blocked vague part
//      (sketch/blocked_count_sketch.h). Saturating vector adds
//      (PADDSW/PADDSB) clamp exactly like common/counters.h's
//      SaturatingAdd whenever the per-lane delta fits the counter type,
//      so the scalar fallback is bit-identical.
//
// Dispatch is compile-time via feature macros: QF_SIMD_AVX2 when the TU is
// built with -mavx2/-march=native, QF_SIMD_SSE2 on any x86-64 target (SSE2
// is part of the base ABI), scalar otherwise (e.g. aarch64 without a NEON
// port yet). QF_SIMD_NAME names the active tier for diagnostics.

#ifndef QUANTILEFILTER_COMMON_SIMD_H_
#define QUANTILEFILTER_COMMON_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#if defined(__AVX2__)
#define QF_SIMD_AVX2 1
#endif
#if defined(__SSE2__) || defined(_M_X64)
#define QF_SIMD_SSE2 1
#endif

#if defined(QF_SIMD_AVX2) || defined(QF_SIMD_SSE2)
#include <immintrin.h>
#endif

namespace qf {

#if defined(QF_SIMD_AVX2)
inline constexpr const char* QF_SIMD_NAME = "avx2";
#elif defined(QF_SIMD_SSE2)
inline constexpr const char* QF_SIMD_NAME = "sse2";
#else
inline constexpr const char* QF_SIMD_NAME = "scalar";
#endif

/// Number of uint32_t lanes a single FindU32/ProbeU32 may read past `n`.
/// Storage probed with them must keep this many readable (zero-filled)
/// elements after the last real one.
inline constexpr int kFindU32Pad = 8;

/// Hints the cache hierarchy to load the line holding `addr` for reading.
inline void Prefetch(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#elif defined(QF_SIMD_SSE2)
  _mm_prefetch(static_cast<const char*>(addr), _MM_HINT_T0);
#else
  (void)addr;
#endif
}

/// Index of the first element of `data[0, n)` equal to `target`, or -1.
/// REQUIRES: data[0, n + kFindU32Pad) must be readable — callers pad their
/// arrays; lanes beyond `n` are masked out, so padding contents are
/// irrelevant to the result.
inline int FindU32(const uint32_t* data, int n, uint32_t target) {
#if defined(QF_SIMD_AVX2)
  const __m256i t = _mm256_set1_epi32(static_cast<int32_t>(target));
  for (int i = 0; i < n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, t))));
    const int remaining = n - i;
    if (remaining < 8) mask &= (1u << remaining) - 1u;
    if (mask) return i + std::countr_zero(mask);
  }
  return -1;
#elif defined(QF_SIMD_SSE2)
  const __m128i t = _mm_set1_epi32(static_cast<int32_t>(target));
  for (int i = 0; i < n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    uint32_t mask = static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, t))));
    const int remaining = n - i;
    if (remaining < 4) mask &= (1u << remaining) - 1u;
    if (mask) return i + std::countr_zero(mask);
  }
  return -1;
#else
  for (int i = 0; i < n; ++i) {
    if (data[i] == target) return i;
  }
  return -1;
#endif
}

/// Reference implementation of FindU32 (used by tests to pin down the SIMD
/// paths; also the scalar tier above).
inline int FindU32Scalar(const uint32_t* data, int n, uint32_t target) {
  for (int i = 0; i < n; ++i) {
    if (data[i] == target) return i;
  }
  return -1;
}

/// Result of ProbeU32: the first lane equal to the target and the first
/// zero lane, each -1 if there is none.
struct U32Probe {
  int match;
  int empty;
};

/// FindU32 for `target` and for 0 in one pass: each vector load of the
/// lanes feeds a compare pair, with no exit between the two searches.
/// Forced inline so a compile-time `n` reaches it: the filter's kernel
/// probes its 6-entry buckets with one AVX2 load or two SSE2 loads.
/// REQUIRES: 1 <= n <= 32 and data[0, n + kFindU32Pad) readable (padding
/// lanes are masked out, so their contents do not matter).
[[gnu::always_inline]] inline U32Probe ProbeU32(const uint32_t* data, int n,
                                                uint32_t target) {
  uint32_t eq = 0;
  uint32_t zero = 0;
#if defined(QF_SIMD_AVX2)
  const __m256i t = _mm256_set1_epi32(static_cast<int32_t>(target));
  const __m256i zeros = _mm256_setzero_si256();
  for (int i = 0; i < n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    eq |= static_cast<uint32_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, t))))
          << i;
    zero |= static_cast<uint32_t>(_mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zeros))))
            << i;
  }
#elif defined(QF_SIMD_SSE2)
  const __m128i t = _mm_set1_epi32(static_cast<int32_t>(target));
  const __m128i zeros = _mm_setzero_si128();
  for (int i = 0; i < n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    eq |= static_cast<uint32_t>(
              _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, t))))
          << i;
    zero |= static_cast<uint32_t>(
                _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, zeros))))
            << i;
  }
#else
  for (int i = 0; i < n; ++i) {
    eq |= static_cast<uint32_t>(data[i] == target) << i;
    zero |= static_cast<uint32_t>(data[i] == 0) << i;
  }
#endif
  const uint32_t live = n >= 32 ? ~0u : (1u << n) - 1u;
  eq &= live;
  zero &= live;
  return U32Probe{eq != 0 ? std::countr_zero(eq) : -1,
                  zero != 0 ? std::countr_zero(zero) : -1};
}

/// Reference implementation of ProbeU32 (used by tests).
inline U32Probe ProbeU32Scalar(const uint32_t* data, int n, uint32_t target) {
  return U32Probe{FindU32Scalar(data, n, target), FindU32Scalar(data, n, 0u)};
}

/// `a` if `take_a`, else `b`, through an all-ones mask rather than a
/// branch: a choice on random data costs no mispredict.
template <typename IntT>
[[gnu::always_inline]] inline IntT SelectMask(bool take_a, IntT a, IntT b) {
  const IntT m = static_cast<IntT>(-static_cast<IntT>(take_a));
  return static_cast<IntT>(b ^ ((a ^ b) & m));
}

/// Calls f(0), ..., f(n - 1). With kN > 0 (then n == kN) the calls are
/// written out, so they unroll whatever the compiler's heuristics say;
/// kN == 0 is a plain loop over the runtime n.
template <int kN, typename F>
[[gnu::always_inline]] inline void ForEachLane(int n, F&& f) {
  if constexpr (kN > 0) {
    [&]<int... kI>(std::integer_sequence<int, kI...>) {
      (f(kI), ...);
    }(std::make_integer_sequence<int, kN>());
  } else {
    for (int i = 0; i < n; ++i) f(i);
  }
}

/// Index of the first minimum of v[0, n) (n >= 1), by mask selects. kN as
/// in ForEachLane.
template <int kN = 0>
[[gnu::always_inline]] inline int FirstMinI32(const int32_t* v, int n) {
  int best = 0;
  int32_t lo = v[0];
  ForEachLane<kN>(n, [&](int i) {
    const bool less = v[i] < lo;
    lo = SelectMask(less, v[i], lo);
    best = SelectMask(less, i, best);
  });
  return best;
}

/// Bytes in one counter block (one cache line).
inline constexpr size_t kBlockBytes = 64;

/// dst[i] = saturate_i16(dst[i] + delta[i]) for the 32 int16 lanes of one
/// 64-byte block. REQUIRES: both pointers 64-byte aligned.
inline void SatAddBlockI16(int16_t* dst, const int16_t* delta) {
#if defined(QF_SIMD_AVX2)
  for (int i = 0; i < 2; ++i) {
    __m256i* d = reinterpret_cast<__m256i*>(dst) + i;
    const __m256i v = _mm256_adds_epi16(
        _mm256_load_si256(d),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(delta) + i));
    _mm256_store_si256(d, v);
  }
#elif defined(QF_SIMD_SSE2)
  for (int i = 0; i < 4; ++i) {
    __m128i* d = reinterpret_cast<__m128i*>(dst) + i;
    const __m128i v = _mm_adds_epi16(
        _mm_load_si128(d),
        _mm_load_si128(reinterpret_cast<const __m128i*>(delta) + i));
    _mm_store_si128(d, v);
  }
#else
  for (size_t i = 0; i < kBlockBytes / sizeof(int16_t); ++i) {
    const int32_t sum = static_cast<int32_t>(dst[i]) + delta[i];
    const int32_t lo = sum < INT16_MIN ? INT16_MIN : sum;
    dst[i] = static_cast<int16_t>(lo > INT16_MAX ? INT16_MAX : lo);
  }
#endif
}

/// dst[i] = saturate_i8(dst[i] + delta[i]) for the 64 int8 lanes of one
/// 64-byte block. REQUIRES: both pointers 64-byte aligned.
inline void SatAddBlockI8(int8_t* dst, const int8_t* delta) {
#if defined(QF_SIMD_AVX2)
  for (int i = 0; i < 2; ++i) {
    __m256i* d = reinterpret_cast<__m256i*>(dst) + i;
    const __m256i v = _mm256_adds_epi8(
        _mm256_load_si256(d),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(delta) + i));
    _mm256_store_si256(d, v);
  }
#elif defined(QF_SIMD_SSE2)
  for (int i = 0; i < 4; ++i) {
    __m128i* d = reinterpret_cast<__m128i*>(dst) + i;
    const __m128i v = _mm_adds_epi8(
        _mm_load_si128(d),
        _mm_load_si128(reinterpret_cast<const __m128i*>(delta) + i));
    _mm_store_si128(d, v);
  }
#else
  for (size_t i = 0; i < kBlockBytes; ++i) {
    const int32_t sum = static_cast<int32_t>(dst[i]) + delta[i];
    const int32_t lo = sum < INT8_MIN ? INT8_MIN : sum;
    dst[i] = static_cast<int8_t>(lo > INT8_MAX ? INT8_MAX : lo);
  }
#endif
}

}  // namespace qf

#endif  // QUANTILEFILTER_COMMON_SIMD_H_
