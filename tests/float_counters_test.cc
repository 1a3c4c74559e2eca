// Floating-point counter configuration ("straightforward solution" of
// Sec III-A Technical Details): exact fractional accumulation, no
// probabilistic rounding. Exercised against the integer configuration.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/quantile_filter.h"
#include "core/vague_part.h"
#include "sketch/count_sketch.h"

namespace qf {
namespace {

TEST(FloatCountersTest, AddRealAccumulatesExactFractions) {
  CountSketch<float> sketch(3, 1024, 5);
  for (int i = 0; i < 100; ++i) sketch.AddReal(7, 1.5);
  EXPECT_EQ(sketch.Estimate(7), 150);
}

TEST(FloatCountersTest, IntegerAddStillWorks) {
  CountSketch<float> sketch(3, 1024, 5);
  sketch.Add(9, -12);
  EXPECT_EQ(sketch.Estimate(9), -12);
}

TEST(FloatCountersTest, SubtractResets) {
  CountSketch<float> sketch(3, 1024, 5);
  sketch.AddReal(3, 2.5);
  sketch.AddReal(3, 2.5);
  EXPECT_EQ(sketch.Estimate(3), 5);
  sketch.Subtract(3, 5);
  EXPECT_EQ(sketch.Estimate(3), 0);
}

TEST(FloatCountersTest, VaguePartUsesExactWeights) {
  // delta=0.6 -> weight 1.5. With float counters the estimate after 100
  // abnormal items is exactly 150 every time (no rounding noise).
  Criteria c(1.0, 0.6, 10.0);
  Rng rng(1);
  VaguePart<CountSketch<float>> vague(64 * 1024, 3, 77);
  const auto key = vague.Locate(5);
  for (int i = 0; i < 100; ++i) vague.Insert(key, true, c, rng);
  EXPECT_EQ(vague.Estimate(key), 150);
}

TEST(FloatCountersTest, FilterDetectsWithFloatVague) {
  QuantileFilter<CountSketch<float>>::Options o;
  o.memory_bytes = 64 * 1024;
  QuantileFilter<CountSketch<float>> filter(o, Criteria(5, 0.9, 100));
  int reports = 0;
  for (int i = 0; i < 1000; ++i) reports += filter.Insert(1, 500.0);
  EXPECT_GT(reports, 0);
}

TEST(FloatCountersTest, FloatAndIntAgreeOnIntegralWeights) {
  // With integral weights (delta = 0.95 -> 19) the two configurations are
  // semantically identical for a lone key.
  Criteria c(30, 0.95, 300);
  QuantileFilter<CountSketch<float>>::Options fo;
  fo.memory_bytes = 64 * 1024;
  QuantileFilter<CountSketch<float>> float_filter(fo, c);
  QuantileFilter<CountSketch<int32_t>>::Options io;
  io.memory_bytes = 64 * 1024;
  QuantileFilter<CountSketch<int32_t>> int_filter(io, c);

  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    double v = rng.Bernoulli(0.3) ? 500.0 : 10.0;
    EXPECT_EQ(float_filter.Insert(42, v), int_filter.Insert(42, v)) << i;
  }
}

TEST(FloatCountersTest, CountMinFloatVariantWorks) {
  CountMinSketch<float> sketch(2, 512, 9);
  sketch.AddReal(1, 0.25);
  sketch.AddReal(1, 0.25);
  sketch.AddReal(1, 0.25);
  sketch.AddReal(1, 0.25);
  EXPECT_EQ(sketch.Estimate(1), 1);
}

}  // namespace
}  // namespace qf
