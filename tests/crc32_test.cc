// CRC-32 and the checkpoint integrity envelope (common/crc32.h): known
// vectors, wrap/unwrap classification, and the RestoreState integration —
// corrupted blobs and CRC-less (stripped or legacy) blobs both rejected.

#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include "core/quantile_filter.h"
#include "core/sharded_filter.h"
#include "gtest/gtest.h"

namespace qf {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(text.data(), text.size());
  for (size_t split = 0; split <= text.size(); ++split) {
    const uint32_t part = Crc32(text.data(), split);
    EXPECT_EQ(Crc32(text.data() + split, text.size() - split, part), whole)
        << "split at " << split;
  }
}

TEST(Crc32, SliceLoopMatchesBytewise) {
  // Exercise the 4-byte folding loop against a byte-at-a-time reference
  // built from the same polynomial (incremental calls of length 1).
  std::vector<uint8_t> data(1021);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + (i >> 5));
  }
  uint32_t byte_at_a_time = 0;
  for (uint8_t b : data) byte_at_a_time = Crc32(&b, 1, byte_at_a_time);
  EXPECT_EQ(Crc32(data.data(), data.size()), byte_at_a_time);
}

TEST(CrcEnvelope, WrapUnwrapRoundTrip) {
  const std::vector<uint8_t> payload = Bytes("QFS2-pretend-checkpoint");
  const std::vector<uint8_t> wrapped = WrapCrc(payload);
  ASSERT_EQ(wrapped.size(), payload.size() + 8);

  const uint8_t* inner = nullptr;
  size_t inner_size = 0;
  EXPECT_EQ(UnwrapCrc(wrapped, &inner, &inner_size), CrcStatus::kOk);
  ASSERT_EQ(inner_size, payload.size());
  EXPECT_EQ(std::vector<uint8_t>(inner, inner + inner_size), payload);
}

TEST(CrcEnvelope, DetectsEveryBitFlip) {
  std::vector<uint8_t> wrapped = WrapCrc(Bytes("payload-under-test"));
  const uint8_t* inner = nullptr;
  size_t inner_size = 0;
  // Flip one bit anywhere after the magic (CRC word or payload): corrupt.
  for (size_t i = 4; i < wrapped.size(); ++i) {
    wrapped[i] ^= 0x10;
    EXPECT_EQ(UnwrapCrc(wrapped, &inner, &inner_size), CrcStatus::kCorrupt)
        << "flip at byte " << i;
    wrapped[i] ^= 0x10;
  }
}

TEST(CrcEnvelope, TruncatedEnvelopeIsCorrupt) {
  const std::vector<uint8_t> wrapped = WrapCrc(Bytes("x"));
  const uint8_t* inner = nullptr;
  size_t inner_size = 0;
  for (size_t n = 4; n < 8; ++n) {
    EXPECT_EQ(UnwrapCrc(wrapped.data(), n, &inner, &inner_size),
              CrcStatus::kCorrupt);
  }
  // Truncating into the payload keeps the envelope parseable but breaks the
  // checksum.
  EXPECT_EQ(UnwrapCrc(wrapped.data(), 8, &inner, &inner_size),
            CrcStatus::kCorrupt);
}

TEST(CrcEnvelope, LegacyBlobClassifiedCorrupt) {
  const std::vector<uint8_t> legacy = Bytes("2SFQ legacy checkpoint bytes");
  const uint8_t* inner = nullptr;
  size_t inner_size = 0;
  EXPECT_EQ(UnwrapCrc(legacy, &inner, &inner_size), CrcStatus::kCorrupt);
  EXPECT_EQ(inner, nullptr);
  EXPECT_EQ(inner_size, 0u);
}

DefaultQuantileFilter::Options SmallOptions() {
  DefaultQuantileFilter::Options o;
  o.memory_bytes = 32 * 1024;
  o.seed = 0xC0FFEE;
  return o;
}

void FeedStream(DefaultQuantileFilter& filter, uint64_t salt) {
  Rng rng(salt);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(500);
    const double value = rng.Bernoulli(0.3) ? 400.0 : 100.0;
    filter.Insert(key, value);
  }
}

TEST(CheckpointCrc, FilterRoundTripIsEnveloped) {
  const Criteria criteria(30, 0.95, 300);
  DefaultQuantileFilter a(SmallOptions(), criteria);
  FeedStream(a, 1);
  const std::vector<uint8_t> state = a.SerializeState();

  const uint8_t* inner = nullptr;
  size_t inner_size = 0;
  EXPECT_EQ(UnwrapCrc(state, &inner, &inner_size), CrcStatus::kOk);

  DefaultQuantileFilter b(SmallOptions(), criteria);
  CrcStatus crc = CrcStatus::kCorrupt;
  ASSERT_TRUE(b.RestoreState(state, &crc));
  EXPECT_EQ(crc, CrcStatus::kOk);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(a.QueryQweight(key), b.QueryQweight(key)) << "key " << key;
  }
}

TEST(CheckpointCrc, CorruptedFilterBlobRejected) {
  const Criteria criteria(30, 0.95, 300);
  DefaultQuantileFilter a(SmallOptions(), criteria);
  FeedStream(a, 2);
  std::vector<uint8_t> state = a.SerializeState();
  state[state.size() / 2] ^= 0x40;  // payload bit flip, caught by the CRC

  DefaultQuantileFilter b(SmallOptions(), criteria);
  CrcStatus crc = CrcStatus::kOk;
  EXPECT_FALSE(b.RestoreState(state, &crc));
  EXPECT_EQ(crc, CrcStatus::kCorrupt);
}

TEST(CheckpointCrc, CrcLessFilterBlobRejected) {
  const Criteria criteria(30, 0.95, 300);
  DefaultQuantileFilter a(SmallOptions(), criteria);
  FeedStream(a, 3);
  std::vector<uint8_t> state = a.SerializeState();
  // Today's payload with the 8-byte envelope stripped: well-formed, but
  // unverified, so it fails closed.
  std::vector<uint8_t> stripped(state.begin() + 8, state.end());

  DefaultQuantileFilter b(SmallOptions(), criteria);
  CrcStatus crc = CrcStatus::kOk;
  EXPECT_FALSE(b.RestoreState(stripped, &crc));
  EXPECT_EQ(crc, CrcStatus::kCorrupt);
  DefaultQuantileFilter c(SmallOptions(), criteria);
  EXPECT_FALSE(c.RestoreState(stripped));
}

TEST(CheckpointCrc, ShardedRoundTripAndLegacyPath) {
  const Criteria criteria(30, 0.95, 300);
  ShardedQuantileFilter<> a(SmallOptions(), criteria, 3);
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    a.Insert(rng.NextBounded(800), rng.Bernoulli(0.3) ? 400.0 : 100.0);
  }
  const std::vector<uint8_t> state = a.SerializeState();

  ShardedQuantileFilter<> b(SmallOptions(), criteria, 3);
  CrcStatus crc = CrcStatus::kCorrupt;
  ASSERT_TRUE(b.RestoreState(state, &crc));
  EXPECT_EQ(crc, CrcStatus::kOk);
  for (uint64_t key = 0; key < 800; ++key) {
    EXPECT_EQ(a.QueryQweight(key), b.QueryQweight(key));
  }

  // Outer envelope stripped: the legacy path is closed, so it is rejected.
  std::vector<uint8_t> legacy(state.begin() + 8, state.end());
  ShardedQuantileFilter<> c(SmallOptions(), criteria, 3);
  EXPECT_FALSE(c.RestoreState(legacy, &crc));
  EXPECT_EQ(crc, CrcStatus::kCorrupt);

  // Corrupt a byte inside some shard payload: the outer CRC rejects it.
  std::vector<uint8_t> corrupt = state;
  corrupt[corrupt.size() - 3] ^= 0x08;
  ShardedQuantileFilter<> d(SmallOptions(), criteria, 3);
  EXPECT_FALSE(d.RestoreState(corrupt, &crc));
  EXPECT_EQ(crc, CrcStatus::kCorrupt);
}

}  // namespace
}  // namespace qf
