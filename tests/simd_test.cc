#include "common/simd.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"

namespace qf {
namespace {

TEST(SimdTest, FindU32MatchesScalarOnRandomArrays) {
  Rng rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(24));
    // Padded buffer, as CandidatePart guarantees; padding lanes hold a
    // value that would match the probe if masking were broken.
    std::vector<uint32_t> data(static_cast<size_t>(n) + kFindU32Pad, 7u);
    // Small value range forces frequent matches and duplicates.
    for (int i = 0; i < n; ++i) {
      data[static_cast<size_t>(i)] = static_cast<uint32_t>(rng.NextBounded(8));
    }
    const uint32_t target = static_cast<uint32_t>(rng.NextBounded(8));
    EXPECT_EQ(FindU32(data.data(), n, target),
              FindU32Scalar(data.data(), n, target))
        << "n=" << n << " target=" << target;
  }
}

TEST(SimdTest, FindU32FirstMatchWins) {
  std::vector<uint32_t> data(16 + kFindU32Pad, 0u);
  data[3] = 5;
  data[9] = 5;
  EXPECT_EQ(FindU32(data.data(), 16, 5u), 3);
  EXPECT_EQ(FindU32(data.data(), 16, 6u), -1);
  EXPECT_EQ(FindU32(data.data(), 16, 0u), 0);
}

TEST(SimdTest, FindU32RespectsLength) {
  // A match just past `n` must be invisible.
  std::vector<uint32_t> data(8 + kFindU32Pad, 0u);
  data[6] = 9;
  EXPECT_EQ(FindU32(data.data(), 6, 9u), -1);
  EXPECT_EQ(FindU32(data.data(), 7, 9u), 6);
}

// ProbeU32 against its scalar reference for one width, `N` compiled in
// (as the filter's kernel does) and passed at run time. Lanes hold small
// values so matches, zeros and both in one bucket are common; the padding
// lanes hold the target or zero, which must stay invisible.
template <int N>
void ExpectProbeMatchesScalar(Rng& rng) {
  for (int trial = 0; trial < 500; ++trial) {
    const uint32_t target = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t pad = rng.NextBounded(2) == 0 ? target : 0u;
    std::vector<uint32_t> data(N + kFindU32Pad, pad);
    for (int i = 0; i < N; ++i) {
      data[static_cast<size_t>(i)] = static_cast<uint32_t>(rng.NextBounded(6));
    }
    const U32Probe want = ProbeU32Scalar(data.data(), N, target);
    const U32Probe compiled = ProbeU32(data.data(), N, target);
    volatile int opaque = N;  // hides the width: the runtime loop form
    const U32Probe runtime = ProbeU32(data.data(), opaque, target);
    ASSERT_EQ(compiled.match, want.match) << "N=" << N << " trial " << trial;
    ASSERT_EQ(compiled.empty, want.empty) << "N=" << N << " trial " << trial;
    ASSERT_EQ(runtime.match, want.match) << "N=" << N << " trial " << trial;
    ASSERT_EQ(runtime.empty, want.empty) << "N=" << N << " trial " << trial;
  }
}

template <int... Ns>
void ExpectProbeMatchesScalarForWidths(std::integer_sequence<int, Ns...>) {
  Rng rng(17);
  (ExpectProbeMatchesScalar<Ns + 1>(rng), ...);
}

TEST(SimdTest, ProbeU32MatchesScalarForWidthsOneToSixteen) {
  ExpectProbeMatchesScalarForWidths(std::make_integer_sequence<int, 16>());
}

TEST(SimdTest, ProbeU32FindsMatchAndEmptyInOnePass) {
  std::vector<uint32_t> data(6 + kFindU32Pad, 5u);  // padding matches 5
  data[0] = 4;
  data[1] = 0;
  data[2] = 5;
  data[3] = 0;
  data[4] = 5;
  data[5] = 3;
  U32Probe p = ProbeU32(data.data(), 6, 5u);
  EXPECT_EQ(p.match, 2);
  EXPECT_EQ(p.empty, 1);
  p = ProbeU32(data.data(), 6, 7u);
  EXPECT_EQ(p.match, -1);
  EXPECT_EQ(p.empty, 1);
  data[1] = data[3] = 9;  // full bucket; zero only in the padding
  std::fill(data.begin() + 6, data.end(), 0u);
  p = ProbeU32(data.data(), 6, 7u);
  EXPECT_EQ(p.match, -1);
  EXPECT_EQ(p.empty, -1);
  // The widest probe: 32 lanes, hits in the last vector.
  std::vector<uint32_t> wide(32 + kFindU32Pad, 8u);
  wide[29] = 0;
  wide[31] = 2;
  p = ProbeU32(wide.data(), 32, 2u);
  EXPECT_EQ(p.match, 31);
  EXPECT_EQ(p.empty, 29);
}

TEST(SimdTest, FirstMinI32PicksFirstMinimum) {
  const int32_t v[] = {5, -3, 7, -3, 0, -2};
  EXPECT_EQ(FirstMinI32(v, 6), 1);
  EXPECT_EQ(FirstMinI32(v, 1), 0);
  const int32_t limits[] = {INT32_MAX, INT32_MIN, 0, INT32_MIN};
  EXPECT_EQ(FirstMinI32(limits, 4), 1);
  EXPECT_EQ(SelectMask(true, int64_t{-7}, int64_t{9}), -7);
  EXPECT_EQ(SelectMask(false, int64_t{-7}, int64_t{9}), 9);
}

TEST(SimdTest, PrefetchIsSafeOnArbitraryAddresses) {
  int x = 0;
  Prefetch(&x);
  Prefetch(nullptr);  // prefetch never faults
  SUCCEED();
}

TEST(FastRangeTest, StaysInRange) {
  Rng rng(7);
  for (uint64_t n : {1ull, 2ull, 3ull, 16ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(FastRange64(rng.Next(), n), n);
    }
  }
  EXPECT_EQ(FastRange64(12345, 1), 0u);
}

TEST(FastRangeTest, CoversAllBucketsUnderUniformHashes) {
  const uint64_t n = 64;
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 100000; ++k) {
    seen.insert(FastRange64(Mix64(k), n));
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(FastRangeTest, RoughlyUniform) {
  const uint64_t n = 16;
  std::vector<int> counts(n, 0);
  const int kDraws = 160000;
  for (int k = 0; k < kDraws; ++k) {
    ++counts[FastRange64(Mix64(static_cast<uint64_t>(k)), n)];
  }
  for (int c : counts) {
    EXPECT_GT(c, kDraws / static_cast<int>(n) * 9 / 10);
    EXPECT_LT(c, kDraws / static_cast<int>(n) * 11 / 10);
  }
}

}  // namespace
}  // namespace qf
