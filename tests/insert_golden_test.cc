// Golden answers for QuantileFilter's per-item insert step.
//
// insert_batch_test.cc checks that Insert and InsertBatch agree with each
// other, but both sides run the same per-item code, so a change to that code
// that alters answers would pass it. This test pins the answers themselves:
// fixed seeded Cloud and Internet traces go through InsertBatch on the
// paper's default geometry (6 entries, depth 3, blocked vague part) and on
// runtime geometries (classic 4 x 5, a 7-entry bucket, other depths and
// counter widths), and the report indices, Stats and serialized state are
// compared with constants recorded from an earlier build. A mismatch means
// the insert path no longer answers as it did; if that is intended, the
// change must say so and the constants must be re-recorded.

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/quantile_filter.h"
#include "stream/generators.h"

namespace qf {
namespace {

constexpr size_t kItems = 60'000;
constexpr size_t kChunk = 256;  // the pipeline workers' InsertBatch chunk

const Trace& CloudTrace() {
  static const Trace trace = [] {
    CloudTraceOptions o;
    o.num_items = kItems;
    o.seed = 5;
    return GenerateCloudTrace(o);
  }();
  return trace;
}

const Trace& InternetTrace() {
  static const Trace trace = [] {
    InternetTraceOptions o;
    o.num_items = kItems;
    o.num_keys = kItems / 40;
    o.seed = 6;
    return GenerateInternetTrace(o);
  }();
  return trace;
}

/// Everything a run answers, reduced to comparable numbers.
struct Answers {
  uint64_t reports = 0;
  uint32_t report_crc = 0;  // CRC-32 of the report indices, in order
  uint64_t candidate_hits = 0;
  uint64_t admissions = 0;
  uint64_t vague_inserts = 0;
  uint64_t swaps = 0;
  uint32_t state_crc = 0;  // CRC-32 of SerializeState()

  bool operator==(const Answers&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Answers& a) {
  return os << "{" << a.reports << ", 0x" << std::hex << a.report_crc
            << std::dec << ", " << a.candidate_hits << ", " << a.admissions
            << ", " << a.vague_inserts << ", " << a.swaps << ", 0x"
            << std::hex << a.state_crc << std::dec << "}";
}

struct Geometry {
  int bucket_entries;
  int vague_depth;
  VagueLayout layout;
  ElectionStrategy election = ElectionStrategy::kComparative;
};

template <typename SketchT>
Answers RunFilter(const Geometry& g, const Trace& trace, double threshold) {
  typename QuantileFilter<SketchT>::Options o;
  // Tight enough that buckets fill and the vague part and election run.
  o.memory_bytes = 16 * 1024;
  o.bucket_entries = g.bucket_entries;
  o.vague_depth = g.vague_depth;
  o.vague_layout = g.layout;
  o.election = g.election;
  const Criteria criteria(30.0, 0.95, threshold);
  QuantileFilter<SketchT> filter(o, criteria);
  std::vector<uint32_t> indices;
  for (size_t pos = 0; pos < trace.size(); pos += kChunk) {
    const size_t n = std::min(kChunk, trace.size() - pos);
    filter.InsertBatch(std::span<const Item>(trace.data() + pos, n),
                       criteria, [&](size_t i, const Item&) {
                         indices.push_back(static_cast<uint32_t>(pos + i));
                       });
  }
  const auto& s = filter.stats();
  EXPECT_EQ(s.items, trace.size());
  EXPECT_EQ(s.reports, indices.size());
  return Answers{s.reports,
                 Crc32(indices.data(), indices.size() * sizeof(uint32_t)),
                 s.candidate_hits,
                 s.admissions,
                 s.vague_inserts,
                 s.swaps,
                 Crc32(filter.SerializeState())};
}

// Paper criteria (Sec V-A) on the Internet trace (T = 300); on the short
// Cloud trace T is lowered from 20000 to 3000 so that reports happen.
Answers Cloud(const Geometry& g) {
  return RunFilter<CountSketch<int16_t>>(g, CloudTrace(), 3000.0);
}
Answers Internet(const Geometry& g) {
  return RunFilter<CountSketch<int16_t>>(g, InternetTrace(), 300.0);
}

constexpr Geometry kDefault{6, 3, VagueLayout::kBlocked};

TEST(InsertGoldenTest, DefaultGeometryCloud) {
  EXPECT_EQ(Cloud(kDefault),
            (Answers{19, 0xa30479d8, 8332, 1638, 50030, 6881, 0xde38fc7e}));
}

TEST(InsertGoldenTest, DefaultGeometryInternet) {
  EXPECT_EQ(Internet(kDefault),
            (Answers{67, 0x14b48641, 51635, 1316, 7049, 313, 0x2ab67e7d}));
}

TEST(InsertGoldenTest, DefaultGeometryRngElections) {
  // Elections that draw from the RNG must keep their draw order.
  Geometry g = kDefault;
  g.election = ElectionStrategy::kProbabilistic;
  EXPECT_EQ(Internet(g),
            (Answers{67, 0x14b48641, 56741, 1316, 1943, 649, 0xe6b25b8c}));
  g.election = ElectionStrategy::kDecay;
  EXPECT_EQ(Cloud(g),
            (Answers{17, 0xe30049a7, 8361, 1638, 50001, 8480, 0x54b97013}));
}

TEST(InsertGoldenTest, DefaultGeometryOtherCounterWidths) {
  // The same geometry on the other blocked counter widths.
  EXPECT_EQ((RunFilter<CountSketch<int32_t>>(kDefault, CloudTrace(), 3000.0)),
            (Answers{18, 0x8b13731e, 8117, 1638, 50245, 6993, 0xa24c007f}));
  EXPECT_EQ((RunFilter<CountSketch<int8_t>>(kDefault, InternetTrace(), 300.0)),
            (Answers{67, 0x14b48641, 51577, 1316, 7107, 313, 0xb179874d}));
}

TEST(InsertGoldenTest, ClassicFourByFive) {
  constexpr Geometry g{4, 5, VagueLayout::kClassic};
  EXPECT_EQ(Cloud(g),
            (Answers{18, 0x09fff58f, 8190, 1636, 50174, 6994, 0xb3df6be5}));
  EXPECT_EQ(Internet(g),
            (Answers{67, 0x14b48641, 47287, 1241, 11472, 427, 0x555eab69}));
}

TEST(InsertGoldenTest, SevenEntryBuckets) {
  // A bucket width that is not a multiple of the probe's vector width.
  constexpr Geometry blocked{7, 3, VagueLayout::kBlocked};
  constexpr Geometry classic{7, 3, VagueLayout::kClassic};
  EXPECT_EQ(Cloud(blocked),
            (Answers{17, 0xe7fd2d92, 8127, 1638, 50235, 6894, 0x1dd610a5}));
  EXPECT_EQ(Internet(classic),
            (Answers{67, 0x14b48641, 49812, 1318, 8870, 328, 0x883c0454}));
}

TEST(InsertGoldenTest, BlockedRuntimeDepths) {
  // The default bucket width with a depth other than 3 runs the runtime
  // geometry on the blocked layout.
  EXPECT_EQ(Cloud(Geometry{6, 4, VagueLayout::kBlocked}),
            (Answers{17, 0x4fc3dec2, 8234, 1638, 50128, 5364, 0x6024662c}));
  EXPECT_EQ(Internet(Geometry{6, 1, VagueLayout::kBlocked}),
            (Answers{67, 0x14b48641, 51681, 1316, 7003, 337, 0x86732efc}));
}

TEST(InsertGoldenTest, ClassicDefaultGeometry) {
  constexpr Geometry g{6, 3, VagueLayout::kClassic};
  EXPECT_EQ(Cloud(g),
            (Answers{18, 0xab37af0f, 8396, 1638, 49966, 6858, 0xe84ddf67}));
}

}  // namespace
}  // namespace qf
