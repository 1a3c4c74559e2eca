#include "sketch/count_sketch.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qf {
namespace {

TEST(MedianOfSmallTest, HandlesSmallSizes) {
  int64_t one[] = {5};
  EXPECT_EQ(MedianOfSmall(one, 1), 5);
  int64_t two[] = {9, 4};
  EXPECT_EQ(MedianOfSmall(two, 2), 4);  // lower median
  int64_t three[] = {9, 4, 7};
  EXPECT_EQ(MedianOfSmall(three, 3), 7);
  int64_t three_b[] = {-3, -9, -1};
  EXPECT_EQ(MedianOfSmall(three_b, 3), -3);
}

TEST(MedianOfSmallTest, GenericPathMatchesSort) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    int n = 4 + static_cast<int>(rng.NextBounded(10));
    std::vector<int64_t> v(n), sorted;
    for (auto& x : v) x = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
    sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(MedianOfSmall(v.data(), n), sorted[(n - 1) / 2]);
  }
}

// Every depth the switch distinguishes (the d <= 5 min/max networks and
// the selection fallback) against std::nth_element, over duplicate-heavy
// inputs that include the int64 extremes.
TEST(MedianOfSmallTest, MatchesNthElementWithDuplicatesAndExtremes) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t alphabet[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  Rng rng(0x3ED1A7);
  for (int n = 1; n <= 9; ++n) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::vector<int64_t> v(static_cast<size_t>(n));
      for (int64_t& x : v) {
        // Mostly a 7-symbol alphabet (many ties), sometimes anything.
        x = rng.NextBounded(4) == 0 ? static_cast<int64_t>(rng.Next())
                                    : alphabet[rng.NextBounded(7)];
      }
      std::vector<int64_t> ref = v;
      std::nth_element(ref.begin(), ref.begin() + (n - 1) / 2, ref.end());
      const int64_t want = ref[static_cast<size_t>((n - 1) / 2)];
      std::vector<int64_t> input = v;
      ASSERT_EQ(MedianOfSmall(input.data(), n), want)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(CountSketchTest, SingleKeyExactWithoutCollisions) {
  CountSketch<int32_t> sketch(3, 1024, 42);
  sketch.Add(7, 10);
  sketch.Add(7, -3);
  EXPECT_EQ(sketch.Estimate(7), 7);
}

TEST(CountSketchTest, UnseenKeyEstimatesNearZero) {
  CountSketch<int32_t> sketch(3, 4096, 42);
  for (uint64_t k = 0; k < 100; ++k) sketch.Add(k, 5);
  // A fresh key should collide in at most a couple of rows.
  int64_t est = sketch.Estimate(999999);
  EXPECT_LE(std::abs(est), 5);
}

TEST(CountSketchTest, NegativeWeightsSupported) {
  CountSketch<int32_t> sketch(3, 1024, 1);
  sketch.Add(5, -100);
  EXPECT_EQ(sketch.Estimate(5), -100);
}

TEST(CountSketchTest, SubtractResetsKey) {
  CountSketch<int32_t> sketch(3, 1024, 9);
  sketch.Add(11, 50);
  int64_t est = sketch.Estimate(11);
  sketch.Subtract(11, est);
  EXPECT_EQ(sketch.Estimate(11), 0);
}

TEST(CountSketchTest, ClearZeroesEverything) {
  CountSketch<int32_t> sketch(3, 64, 3);
  for (uint64_t k = 0; k < 1000; ++k) sketch.Add(k, 7);
  sketch.Clear();
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_EQ(sketch.Estimate(k), 0);
}

TEST(CountSketchTest, FromBytesRespectsBudget) {
  auto sketch = CountSketch<int16_t>::FromBytes(12 * 1024, 3, 5);
  EXPECT_LE(sketch.MemoryBytes(), 12u * 1024u);
  EXPECT_GT(sketch.MemoryBytes(), 10u * 1024u);  // should use most of it
  EXPECT_EQ(sketch.depth(), 3);
}

TEST(CountSketchTest, EstimateIsUnbiasedUnderCollisions) {
  // Heavy collision regime: 2000 keys in 3x128 counters. The average signed
  // error over many independent sketches must be near zero for a fixed key.
  const int sketches = 60;
  double total_err = 0;
  for (int s = 0; s < sketches; ++s) {
    CountSketch<int32_t> sketch(3, 128, 1000 + s);
    for (uint64_t k = 0; k < 2000; ++k) sketch.Add(k, 3);
    total_err += static_cast<double>(sketch.Estimate(77)) - 3.0;
  }
  double mean_err = total_err / sketches;
  EXPECT_NEAR(mean_err, 0.0, 6.0);
}

TEST(CountSketchTest, ErrorShrinksWithWidth) {
  // Average absolute error should drop when width grows (Theorem 1:
  // variance ~ L2^2 / w).
  auto avg_abs_error = [](size_t width) {
    double total = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      CountSketch<int32_t> sketch(3, width, 500 + t);
      for (uint64_t k = 0; k < 5000; ++k) sketch.Add(k, 1);
      for (uint64_t k = 0; k < 50; ++k) {
        total += std::abs(static_cast<double>(sketch.Estimate(k)) - 1.0);
      }
    }
    return total / (trials * 50);
  };
  double err_narrow = avg_abs_error(64);
  double err_wide = avg_abs_error(1024);
  EXPECT_LT(err_wide, err_narrow * 0.6);
}

TEST(CountSketchTest, SmallCountersSaturateInsteadOfWrapping) {
  CountSketch<int8_t> sketch(1, 4, 2);
  for (int i = 0; i < 1000; ++i) sketch.Add(1, 1);
  // True count 1000 exceeds int8 range; estimate must be clamped positive,
  // never wrapped negative.
  int64_t est = sketch.Estimate(1);
  EXPECT_GT(est, 0);
  EXPECT_LE(est, 127);
}

TEST(CountSketchTest, DepthOneWorks) {
  CountSketch<int32_t> sketch(1, 256, 6);
  sketch.Add(42, 19);
  EXPECT_EQ(sketch.Estimate(42), 19);
}

TEST(CountSketchTest, ManyKeysPreserveHeavyKeySignal) {
  CountSketch<int32_t> sketch(3, 2048, 77);
  sketch.Add(123456, 5000);
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    sketch.Add(rng.Next() | 1, rng.Bernoulli(0.5) ? 1 : -1);
  }
  int64_t est = sketch.Estimate(123456);
  EXPECT_NEAR(static_cast<double>(est), 5000.0, 500.0);
}

}  // namespace
}  // namespace qf
