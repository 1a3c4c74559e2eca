#include "core/vague_part.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/criteria.h"

namespace qf {
namespace {

TEST(VaguePartTest, InsertReturnsPostInsertEstimate) {
  VaguePart<CountSketch<int32_t>> vague(64 * 1024, 3, 42);
  Criteria c(30, 0.95, 300);
  Rng rng(1);
  // Two abnormal items: estimate should be 38 (2 * 19) with no collisions.
  const auto key = vague.Locate(7);
  vague.Insert(key, true, c, rng);
  int64_t est = vague.Insert(key, true, c, rng);
  EXPECT_EQ(est, 38);
}

TEST(VaguePartTest, NormalItemsDecrement) {
  VaguePart<CountSketch<int32_t>> vague(64 * 1024, 3, 42);
  Criteria c(30, 0.95, 300);
  Rng rng(2);
  const auto key = vague.Locate(9);
  vague.Insert(key, false, c, rng);
  int64_t est = vague.Insert(key, false, c, rng);
  EXPECT_EQ(est, -2);
}

TEST(VaguePartTest, SubtractResetsEstimate) {
  VaguePart<CountSketch<int32_t>> vague(64 * 1024, 3, 7);
  Criteria c(30, 0.95, 300);
  Rng rng(3);
  const auto key = vague.Locate(5);
  for (int i = 0; i < 10; ++i) vague.Insert(key, true, c, rng);
  int64_t est = vague.Estimate(key);
  EXPECT_EQ(est, 190);
  vague.Subtract(key, est);
  EXPECT_EQ(vague.Estimate(key), 0);
}

TEST(VaguePartTest, AddRawQweight) {
  VaguePart<CountSketch<int32_t>> vague(64 * 1024, 3, 9);
  vague.Add(vague.Locate(11), -25);
  EXPECT_EQ(vague.Estimate(vague.Locate(11)), -25);
}

TEST(VaguePartTest, WorksWithCountMinEngine) {
  VaguePart<CountMinSketch<int32_t>> vague(64 * 1024, 3, 13);
  Criteria c(30, 0.95, 300);
  Rng rng(4);
  const auto key = vague.Locate(3);
  vague.Insert(key, true, c, rng);
  EXPECT_EQ(vague.Estimate(key), 19);
  vague.Subtract(key, 19);
  EXPECT_EQ(vague.Estimate(key), 0);
}

TEST(VaguePartTest, FractionalWeightsAreUnbiased) {
  Criteria c(1.0, 0.6, 10.0);  // weight 1.5
  Rng rng(5);
  VaguePart<CountSketch<int32_t>> vague(256 * 1024, 3, 17);
  const int n = 40000;
  const auto key = vague.Locate(21);
  for (int i = 0; i < n; ++i) vague.Insert(key, true, c, rng);
  double mean = static_cast<double>(vague.Estimate(key)) / n;
  EXPECT_NEAR(mean, 1.5, 0.02);
}

TEST(VaguePartTest, ClearZeroes) {
  VaguePart<CountSketch<int16_t>> vague(4 * 1024, 3, 19);
  vague.Add(vague.Locate(1), 100);
  vague.Clear();
  EXPECT_EQ(vague.Estimate(vague.Locate(1)), 0);
}

}  // namespace
}  // namespace qf
