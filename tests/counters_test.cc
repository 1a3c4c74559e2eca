#include "common/counters.h"

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qf {
namespace {

TEST(SaturatingAddTest, PlainAdditionWithinRange) {
  EXPECT_EQ(SaturatingAdd<int16_t>(100, 23), 123);
  EXPECT_EQ(SaturatingAdd<int16_t>(100, -223), -123);
  EXPECT_EQ(SaturatingAdd<int8_t>(0, 0), 0);
}

TEST(SaturatingAddTest, ClampsAtMax) {
  EXPECT_EQ(SaturatingAdd<int16_t>(32767, 1), 32767);
  EXPECT_EQ(SaturatingAdd<int16_t>(32000, 10000), 32767);
  EXPECT_EQ(SaturatingAdd<int8_t>(127, 1), 127);
  EXPECT_EQ(SaturatingAdd<int32_t>(INT32_MAX, INT64_MAX), INT32_MAX);
}

TEST(SaturatingAddTest, ClampsAtMin) {
  EXPECT_EQ(SaturatingAdd<int16_t>(-32768, -1), -32768);
  EXPECT_EQ(SaturatingAdd<int16_t>(-32000, -10000), -32768);
  EXPECT_EQ(SaturatingAdd<int8_t>(-128, -1), -128);
  EXPECT_EQ(SaturatingAdd<int32_t>(INT32_MIN, INT64_MIN), INT32_MIN);
}

TEST(SaturatingAddTest, NeverRollsOver) {
  // The paper's overflow requirement: 32767 + 1 must not become -32768.
  int16_t c = 32767;
  c = SaturatingAdd(c, 1);
  EXPECT_GT(c, 0);
  c = std::numeric_limits<int16_t>::min();
  c = SaturatingAdd(c, -1);
  EXPECT_LT(c, 0);
}

TEST(SaturatingAddTest, RecoversFromSaturation) {
  // Saturated counters still respond to opposite-sign updates.
  int16_t c = SaturatingAdd<int16_t>(32767, 100);
  EXPECT_EQ(c, 32767);
  c = SaturatingAdd(c, -10);
  EXPECT_EQ(c, 32757);
}

TEST(SaturatingAddTest, ExtremeDeltasDoNotOverflowInternally) {
  // Deltas near the int64 limits must not wrap the internal arithmetic.
  EXPECT_EQ(SaturatingAdd<int32_t>(5, std::numeric_limits<int64_t>::max()),
            INT32_MAX);
  EXPECT_EQ(SaturatingAdd<int32_t>(-5, std::numeric_limits<int64_t>::min()),
            INT32_MIN);
}

TEST(SaturatingCounterTest, AccumulatesAndResets) {
  SaturatingCounter<int16_t> c;
  EXPECT_EQ(c.value(), 0);
  c.Add(19);
  c.Add(19);
  c.Add(-1);
  EXPECT_EQ(c.value(), 37);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(SaturatingCounterTest, SaturatesLikeFreeFunction) {
  SaturatingCounter<int8_t> c(120);
  c.Add(100);
  EXPECT_EQ(c.value(), 127);
  c.Add(-1000);
  EXPECT_EQ(c.value(), -128);
}

// Property sweep: saturating add over an int8 grid must equal the clamped
// wide-integer sum everywhere.
TEST(SaturatingAddTest, MatchesClampedWideSumExhaustivelyForInt8) {
  for (int v = -128; v <= 127; ++v) {
    for (int d = -400; d <= 400; d += 7) {
      int64_t wide = static_cast<int64_t>(v) + d;
      if (wide > 127) wide = 127;
      if (wide < -128) wide = -128;
      EXPECT_EQ(SaturatingAdd<int8_t>(static_cast<int8_t>(v), d),
                static_cast<int8_t>(wide))
          << "v=" << v << " d=" << d;
    }
  }
}

// The branching formulation SaturatingAdd used before it became
// branch-free (one branch on the delta's sign, one on overflow), kept as
// the reference the clamp-based version must match bit for bit.
template <typename IntT>
IntT BranchingSaturatingAdd(IntT value, int64_t delta) {
  constexpr int64_t kMin = std::numeric_limits<IntT>::min();
  constexpr int64_t kMax = std::numeric_limits<IntT>::max();
  const int64_t v = static_cast<int64_t>(value);
  if (delta >= 0) {
    return (delta > kMax - v) ? static_cast<IntT>(kMax)
                              : static_cast<IntT>(v + delta);
  }
  return (delta < kMin - v) ? static_cast<IntT>(kMin)
                            : static_cast<IntT>(v + delta);
}

constexpr int64_t kTwo40 = int64_t{1} << 40;
constexpr int64_t kBoundaryDeltas[] = {
    std::numeric_limits<int64_t>::min(),
    -kTwo40 - 1,
    -kTwo40,
    -32769,
    -1,
    0,
    1,
    32768,
    kTwo40,
    kTwo40 + 1,
    std::numeric_limits<int64_t>::max(),
};

// Every value of the counter type against every boundary delta.
template <typename IntT>
void ExpectMatchesBranchingForEveryValue() {
  int mismatches = 0;
  for (int64_t v = std::numeric_limits<IntT>::min();
       v <= std::numeric_limits<IntT>::max(); ++v) {
    for (const int64_t d : kBoundaryDeltas) {
      const IntT got = SaturatingAdd(static_cast<IntT>(v), d);
      const IntT want = BranchingSaturatingAdd(static_cast<IntT>(v), d);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "v=" << v << " d=" << d << " got " << +got
                      << " want " << +want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SaturatingAddTest, MatchesBranchingReferenceForEveryInt8Value) {
  ExpectMatchesBranchingForEveryValue<int8_t>();
}

TEST(SaturatingAddTest, MatchesBranchingReferenceForEveryInt16Value) {
  ExpectMatchesBranchingForEveryValue<int16_t>();
}

TEST(SaturatingAddTest, MatchesBranchingReferenceOnRandomInt32) {
  Rng rng(0x5A7ADD);
  std::vector<int32_t> values = {std::numeric_limits<int32_t>::min(), -1, 0,
                                 1, std::numeric_limits<int32_t>::max()};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<int32_t>(rng.Next()));
  }
  int mismatches = 0;
  for (const int32_t v : values) {
    std::vector<int64_t> deltas(std::begin(kBoundaryDeltas),
                                std::end(kBoundaryDeltas));
    // Random deltas of every size: full int64, int32, around 2^40, and
    // ones that land the sum next to zero.
    for (int i = 0; i < 50; ++i) {
      deltas.push_back(static_cast<int64_t>(rng.Next()));
      deltas.push_back(static_cast<int32_t>(rng.Next()));
      deltas.push_back(static_cast<int64_t>(rng.Next()) >> 23);
      deltas.push_back(-static_cast<int64_t>(v) +
                       static_cast<int64_t>(rng.NextBounded(5)) - 2);
    }
    for (const int64_t d : deltas) {
      const int32_t got = SaturatingAdd(v, d);
      const int32_t want = BranchingSaturatingAdd(v, d);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "v=" << v << " d=" << d << " got " << got
                      << " want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace qf
