#include "sketch/blocked_count_sketch.h"

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/serialize.h"

namespace qf {
namespace {

TEST(BlockedSketchTest, GeometryRoundsToWholeBlocks) {
  auto s = BlockedCountSketch<int16_t>::FromBytes(1000, 3, 7);
  EXPECT_EQ(s.num_blocks(), 1000u / 64u);
  EXPECT_EQ(s.MemoryBytes(), (1000u / 64u) * 64u);
  EXPECT_EQ(s.MemoryBytes() % 64u, 0u);
  // Sub-block budgets still yield one block.
  auto tiny = BlockedCountSketch<int16_t>::FromBytes(1, 3, 7);
  EXPECT_EQ(tiny.num_blocks(), 1u);
  EXPECT_EQ(tiny.MemoryBytes(), 64u);
}

TEST(BlockedSketchTest, DepthClampsToLanes) {
  using S = BlockedCountSketch<int16_t>;
  EXPECT_EQ(S::kLanes, 32);
  S s(100, 16, 3);
  EXPECT_EQ(s.depth(), S::kLanes);
  S s0(0, 16, 3);
  EXPECT_EQ(s0.depth(), 1);
}

TEST(BlockedSketchTest, PlacementLanesDistinctWithinOneBlock) {
  using S = BlockedCountSketch<int16_t>;
  S s(5, 4096, 0xABCD);
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t key = rng.Next();
    const S::Placement p = s.PlacementOf(key);
    EXPECT_LT(p.block, s.num_blocks());
    for (int i = 0; i < s.depth(); ++i) {
      EXPECT_LT(p.lanes[i], static_cast<uint32_t>(S::kLanes));
      EXPECT_TRUE(p.signs[i] == 1 || p.signs[i] == -1);
      for (int j = 0; j < i; ++j) {
        EXPECT_NE(p.lanes[i], p.lanes[j])
            << "key " << key << " rows " << i << "," << j;
      }
    }
  }
}

TEST(BlockedSketchTest, SignsRoughlyBalanced) {
  BlockedCountSketch<int16_t> s(3, 1024, 99);
  int plus = 0, total = 0;
  Rng rng(5);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto p = s.PlacementOf(rng.Next());
    for (int i = 0; i < 3; ++i, ++total) plus += p.signs[i] == 1;
  }
  const double frac = static_cast<double>(plus) / total;
  EXPECT_GT(frac, 0.45);
  EXPECT_LT(frac, 0.55);
}

TEST(BlockedSketchTest, SingleKeyExactWithoutCollisions) {
  BlockedCountSketch<int16_t> s(3, 4096, 42);
  s.Add(7, 10);
  s.Add(7, -3);
  EXPECT_EQ(s.Estimate(7), 7);
  s.Subtract(7, 7);
  EXPECT_EQ(s.Estimate(7), 0);
}

TEST(BlockedSketchTest, NegativeWeightsSupported) {
  BlockedCountSketch<int16_t> s(3, 4096, 1);
  s.Add(5, -100);
  EXPECT_EQ(s.Estimate(5), -100);
}

TEST(BlockedSketchTest, UnseenKeyEstimatesNearZero) {
  BlockedCountSketch<int16_t> s(3, 8192, 42);
  for (uint64_t k = 0; k < 100; ++k) s.Add(k, 5);
  EXPECT_LE(std::abs(s.Estimate(999999)), 5);
}

TEST(BlockedSketchTest, SaturatesAtCounterMax) {
  BlockedCountSketch<int16_t> s(3, 1024, 11);
  constexpr int64_t kMax = std::numeric_limits<int16_t>::max();
  // In-range SIMD adds walk the counter up to the clamp...
  for (int i = 0; i < 10; ++i) s.Add(3, 20000);
  EXPECT_EQ(s.Estimate(3), kMax);
  // ...and a single out-of-range scalar add clamps identically.
  BlockedCountSketch<int16_t> t(3, 1024, 11);
  t.Add(3, int64_t{1} << 40);
  EXPECT_EQ(t.Estimate(3), kMax);
  t.Add(3, -(int64_t{1} << 40));
  EXPECT_EQ(t.Estimate(3), std::numeric_limits<int16_t>::min());
}

/// The SIMD update path must equal a scalar int64-clamped reference model,
/// lane for lane, across random in-range and out-of-range weights.
TEST(BlockedSketchTest, MatchesScalarSaturatingReference) {
  using S = BlockedCountSketch<int16_t>;
  S s(4, 64, 123);  // small: plenty of block collisions
  std::map<std::pair<size_t, uint32_t>, int16_t> ref;
  Rng rng(77);
  std::vector<uint64_t> keys;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(500);
    keys.push_back(key);
    int64_t w = static_cast<int64_t>(rng.NextBounded(100)) - 50;
    if (rng.NextBounded(50) == 0) w *= 100000;  // exercise the scalar path
    s.Add(key, w);
    const S::Placement p = s.PlacementOf(key);
    for (int i = 0; i < s.depth(); ++i) {
      int16_t& c = ref[{p.block, p.lanes[i]}];
      c = SaturatingAdd(c, p.signs[i] * w);
    }
  }
  for (const uint64_t key : keys) {
    const S::Placement p = s.PlacementOf(key);
    int64_t vals[S::kLanes];
    for (int i = 0; i < s.depth(); ++i) {
      vals[i] = static_cast<int64_t>(p.signs[i]) * ref[{p.block, p.lanes[i]}];
    }
    EXPECT_EQ(s.Estimate(key), MedianOfSmall(vals, s.depth()));
  }
}

TEST(BlockedSketchTest, Int8CountersWork) {
  BlockedCountSketch<int8_t> s(3, 2048, 9);
  EXPECT_EQ(decltype(s)::kLanes, 64);
  s.Add(21, 100);
  EXPECT_EQ(s.Estimate(21), 100);
  s.Add(21, 100);
  EXPECT_EQ(s.Estimate(21), std::numeric_limits<int8_t>::max());
}

TEST(BlockedSketchTest, Int32CountersWork) {
  BlockedCountSketch<int32_t> s(3, 2048, 9);
  EXPECT_EQ(decltype(s)::kLanes, 16);
  s.Add(21, 1 << 20);
  EXPECT_EQ(s.Estimate(21), 1 << 20);
}

// The fused insert-path op must be indistinguishable from the two-step
// sequence, counter state included.
TEST(BlockedSketchTest, AddEstimateMatchesAddThenEstimate) {
  BlockedCountSketch<int16_t> fused(3, 64, 11);
  BlockedCountSketch<int16_t> twostep(3, 64, 11);
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(500);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(41)) - 20;
    const int64_t a = fused.AddEstimate(key, w);
    twostep.Add(key, w);
    const int64_t b = twostep.Estimate(key);
    ASSERT_EQ(a, b) << "op " << i << " key " << key << " w " << w;
  }
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_EQ(fused.Estimate(key), twostep.Estimate(key)) << key;
  }
}

// The *Hashed entry points, fed KeyHash(key) and compiled for the depth
// (the filter kernel's form), must leave the same counters and return the
// same answers as the key entry points, which run the runtime depth,
// saturated lanes included. Few blocks and large weights keep lanes pinned
// at both limits; for int32 lanes that checks that a negative sign times a
// lane at INT32_MIN is widened before the multiply.
template <typename CounterT, int kDepth>
void ExpectHashedEntryPointsMatchKeyEntryPoints() {
  using S = BlockedCountSketch<CounterT>;
  constexpr uint64_t kSeed = 0x4A5E;
  constexpr int64_t kMax = std::numeric_limits<CounterT>::max();
  S by_key(kDepth, 4, kSeed);
  S by_hash(kDepth, 4, kSeed);
  Rng rng(91);
  int saturated = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(64);
    const uint64_t h = by_hash.KeyHash(key);
    ASSERT_EQ(h, HashKey(key, kSeed));
    int64_t w = static_cast<int64_t>(rng.NextBounded(2 * kMax + 1)) - kMax;
    if (rng.NextBounded(20) == 0) w *= int64_t{1} << 20;  // past the range
    switch (rng.NextBounded(3)) {
      case 0:
        by_key.Add(key, w);
        by_hash.template AddHashed<kDepth>(h, w);
        break;
      case 1: {
        const int64_t a = by_key.AddEstimate(key, w);
        ASSERT_EQ(a, by_hash.template AddEstimateHashed<kDepth>(h, w))
            << "depth " << kDepth << " op " << op;
        ASSERT_EQ(a, by_hash.template EstimateHashed<kDepth>(h))
            << "depth " << kDepth << " op " << op;
        saturated += (a >= kMax || a <= -kMax);
        break;
      }
      default:
        by_key.Subtract(key, w);
        by_hash.template AddHashed<kDepth>(h, -w);
        break;
    }
    ASSERT_EQ(by_key.Estimate(key), by_hash.EstimateHashed(h))
        << "depth " << kDepth << " op " << op;
  }
  EXPECT_GT(saturated, 0) << "depth " << kDepth;
  std::vector<uint8_t> a, b;
  by_key.AppendTo(&a);
  by_hash.AppendTo(&b);
  EXPECT_EQ(a, b) << "depth " << kDepth;
}

template <typename CounterT>
void ExpectHashedEntryPointsMatchAtDepthsOneToFive() {
  ExpectHashedEntryPointsMatchKeyEntryPoints<CounterT, 1>();
  ExpectHashedEntryPointsMatchKeyEntryPoints<CounterT, 2>();
  ExpectHashedEntryPointsMatchKeyEntryPoints<CounterT, 3>();
  ExpectHashedEntryPointsMatchKeyEntryPoints<CounterT, 4>();
  ExpectHashedEntryPointsMatchKeyEntryPoints<CounterT, 5>();
}

TEST(BlockedSketchTest, HashedEntryPointsMatchKeyEntryPoints) {
  ExpectHashedEntryPointsMatchAtDepthsOneToFive<int8_t>();
  ExpectHashedEntryPointsMatchAtDepthsOneToFive<int16_t>();
  ExpectHashedEntryPointsMatchAtDepthsOneToFive<int32_t>();
}

TEST(BlockedSketchTest, MergeEqualsCombinedStream) {
  BlockedCountSketch<int16_t> a(3, 512, 4), b(3, 512, 4), both(3, 512, 4);
  Rng rng(31);
  for (int op = 0; op < 3000; ++op) {
    const uint64_t key = rng.NextBounded(200);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(20)) - 5;
    if (op % 2 == 0) {
      a.Add(key, w);
    } else {
      b.Add(key, w);
    }
    both.Add(key, w);
  }
  ASSERT_TRUE(a.MergeFrom(b));
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(a.Estimate(key), both.Estimate(key)) << key;
  }
}

TEST(BlockedSketchTest, MergeableRejectsMismatches) {
  BlockedCountSketch<int16_t> a(3, 512, 4);
  BlockedCountSketch<int16_t> seed(3, 512, 5);
  BlockedCountSketch<int16_t> blocks(3, 256, 4);
  BlockedCountSketch<int16_t> depth(4, 512, 4);
  EXPECT_FALSE(a.Mergeable(seed));
  EXPECT_FALSE(a.Mergeable(blocks));
  EXPECT_FALSE(a.Mergeable(depth));
  EXPECT_FALSE(a.MergeFrom(seed));
}

TEST(BlockedSketchTest, SerializeRoundTrips) {
  BlockedCountSketch<int16_t> s(3, 256, 8);
  Rng rng(2);
  for (int op = 0; op < 1000; ++op) {
    s.Add(rng.NextBounded(300), static_cast<int64_t>(rng.NextBounded(40)) - 10);
  }
  std::vector<uint8_t> bytes;
  s.AppendTo(&bytes);
  BlockedCountSketch<int16_t> restored(3, 256, 8);
  ByteReader reader(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.ReadFrom(&reader));
  for (uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(restored.Estimate(key), s.Estimate(key));
  }
  // Geometry mismatches fail closed.
  BlockedCountSketch<int16_t> wrong(3, 128, 8);
  ByteReader reader2(bytes.data(), bytes.size());
  EXPECT_FALSE(wrong.ReadFrom(&reader2));
}

TEST(BlockedSketchTest, ClearZeroesEverything) {
  BlockedCountSketch<int16_t> s(3, 256, 8);
  for (uint64_t k = 0; k < 50; ++k) s.Add(k, 30);
  s.Clear();
  for (uint64_t k = 0; k < 50; ++k) EXPECT_EQ(s.Estimate(k), 0);
}

TEST(BlockedSketchTest, HeavyKeySurvivesBackgroundNoise) {
  // A coarse accuracy sanity check: one heavy key against broad noise
  // should estimate within a small relative error at a healthy budget.
  BlockedCountSketch<int16_t> s(3, 16384, 55);
  Rng rng(3);
  for (int i = 0; i < 600; ++i) s.Add(424242, 10);
  for (int i = 0; i < 30000; ++i) s.Add(rng.NextBounded(100000), 1);
  const int64_t est = s.Estimate(424242);
  EXPECT_GT(est, 5000);
  EXPECT_LT(est, 7000);
}

}  // namespace
}  // namespace qf
