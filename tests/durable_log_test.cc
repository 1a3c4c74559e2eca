// Durability layer corruption suite (DESIGN.md §14): the WAL reading
// rules — torn trailing frames repair to the exact valid prefix, every
// other corruption shape fails closed in both the boot scan and the
// segment-ship range read — plus the range read's bounds, checkpoint
// round-trips with RNG carry, corrupt-top fallback (including an older
// build's delta file), retention, and the qf_durable_* metric names
// surviving the Prometheus exporter's own validator. All against
// MemStorage, where "disk surgery" is plain vector surgery.

#include "durable/log.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "common/serialize.h"
#include "durable/checkpoint.h"
#include "durable/recovery.h"
#include "durable/storage.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "stream/item.h"
#include "temp_path.h"

namespace qf::durable {
namespace {

/// Appends `records` one-item records through a fresh writer and returns
/// the items, so scans have a known ground truth.
std::vector<Item> AppendRecords(WalWriter& wal, size_t records,
                                uint64_t key_base = 100) {
  std::vector<Item> items;
  for (size_t r = 0; r < records; ++r) {
    const Item item{key_base + r, 1.5 * static_cast<double>(r + 1)};
    uint64_t seq = 0;
    EXPECT_TRUE(wal.Append(std::span<const Item>(&item, 1), &seq));
    items.push_back(item);
  }
  EXPECT_TRUE(wal.Sync());
  return items;
}

bool SameItems(const std::vector<Item>& a, const std::vector<Item>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  }
  return true;
}

/// Every fail-closed shape must stop both readers of the log: the boot
/// scan and the segment-ship range read.
void ExpectBothReadersFailClosed(Storage& storage, uint64_t gen) {
  const LogScan scan = ScanWal(storage, gen, 0, false);
  EXPECT_FALSE(scan.ok);
  EXPECT_FALSE(scan.error.empty());
  const WalRange range = ReadWalRange(storage, gen, 0, 0, nullptr, nullptr);
  EXPECT_FALSE(range.ok);
  EXPECT_FALSE(range.error.empty());
}

WalOptions SmallSegments() {
  WalOptions o;
  o.segment_bytes = 128;  // a record frame is ~60 bytes: rotate every 2-3
  o.fsync = FsyncMode::kNone;
  return o;
}

TEST(DurableLogTest, SegmentNameRoundTrips) {
  uint64_t seq = 0;
  EXPECT_TRUE(ParseSegmentName(SegmentName(1), &seq));
  EXPECT_EQ(seq, 1u);
  EXPECT_TRUE(ParseSegmentName(SegmentName(0xdeadbeef12345678ull), &seq));
  EXPECT_EQ(seq, 0xdeadbeef12345678ull);
  EXPECT_FALSE(ParseSegmentName("ckpt-0000000000000001.qfck", &seq));
  EXPECT_FALSE(ParseSegmentName("seg-xyz.qfwal", &seq));
  EXPECT_FALSE(ParseSegmentName("seg-0000000000000001.tmp", &seq));
}

TEST(DurableLogTest, AppendScanRoundTripAcrossRotation) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  const std::vector<Item> items = AppendRecords(wal, 10);
  EXPECT_EQ(wal.next_seq(), 11u);

  const LogScan scan = ScanWal(storage, 1, 0, false);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_TRUE(SameItems(scan.tail, items));
  EXPECT_EQ(scan.tail_records, 10u);
  EXPECT_EQ(scan.next_seq, 11u);
  EXPECT_EQ(scan.wal_gen, 1u);
  EXPECT_GE(scan.segments_scanned, 2u);  // 128-byte segments must rotate
  EXPECT_EQ(scan.torn_truncations, 0u);
}

TEST(DurableLogTest, ScanSkipsAppliedPrefixButVerifiesIt) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  const std::vector<Item> items = AppendRecords(wal, 8);

  const LogScan scan = ScanWal(storage, 1, 5, false);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.tail_records, 3u);
  EXPECT_TRUE(SameItems(scan.tail, {items.begin() + 5, items.end()}));

  // The applied prefix is still integrity-checked: corrupting record 2
  // fails the same scan closed even though its items would not be returned.
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  storage.blobs()[names.front()][40] ^= 0x01;
  EXPECT_FALSE(ScanWal(storage, 1, 5, false).ok);
}

TEST(DurableLogTest, TornTrailingFrameRecoversExactValidPrefix) {
  MemStorage storage;
  // One big segment so the trailing frame is record 9 itself (rotation
  // would leave a header-only active segment as the cut target instead).
  WalOptions one_segment;
  one_segment.fsync = FsyncMode::kNone;
  WalWriter wal(&storage, one_segment);
  ASSERT_TRUE(wal.Init(1, 1));
  const std::vector<Item> items = AppendRecords(wal, 9);

  // Cut into the last frame of the last segment, as a power cut mid-append
  // would: every complete record before it must recover, nothing else.
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  const std::string last = names.back();
  const size_t intact = storage.blobs()[last].size();
  storage.blobs()[last].resize(intact - 5);

  // Read-only scan (the crash-harness oracle pass): prefix recovered, torn
  // frame counted, blob untouched.
  const LogScan dry = ScanWal(storage, 1, 0, false);
  ASSERT_TRUE(dry.ok) << dry.error;
  EXPECT_EQ(dry.torn_truncations, 1u);
  EXPECT_EQ(dry.tail_records, 8u);
  EXPECT_TRUE(SameItems(dry.tail, {items.begin(), items.end() - 1}));
  EXPECT_EQ(dry.next_seq, 9u);
  EXPECT_EQ(storage.blobs()[last].size(), intact - 5);

  // Repairing scan (server boot) physically truncates; a rescan then sees
  // a clean log — the repair is idempotent.
  const LogScan repair = ScanWal(storage, 1, 0, true);
  ASSERT_TRUE(repair.ok) << repair.error;
  EXPECT_EQ(repair.torn_truncations, 1u);
  EXPECT_LT(storage.blobs()[last].size(), intact - 5);
  const LogScan rescan = ScanWal(storage, 1, 0, true);
  ASSERT_TRUE(rescan.ok) << rescan.error;
  EXPECT_EQ(rescan.torn_truncations, 0u);
  EXPECT_TRUE(SameItems(rescan.tail, dry.tail));
}

TEST(DurableLogTest, BitFlippedRecordFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 9);

  // Flip one bit inside a sealed (non-final) segment: the frame is
  // complete, its CRC no longer matches, and torn-tail leniency must not
  // apply — boot refuses rather than guessing.
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_GE(names.size(), 2u);
  std::vector<uint8_t>& blob = storage.blobs()[names.front()];
  blob[blob.size() / 2] ^= 0x40;
  ExpectBothReadersFailClosed(storage, 1);
}

TEST(DurableLogTest, TornFrameInSealedSegmentFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 9);

  // An incomplete trailing frame is only legitimate in the LAST segment; a
  // short sealed segment means lost middle records, not a torn append.
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_GE(names.size(), 2u);
  std::vector<uint8_t>& blob = storage.blobs()[names.front()];
  blob.resize(blob.size() - 5);
  ExpectBothReadersFailClosed(storage, 1);
}

TEST(DurableLogTest, DuplicatedSegmentFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 6);

  // The same bytes under a later name: the copy's header first_seq
  // disagrees with its file name, so replay refuses to double-apply.
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  storage.blobs()[SegmentName(wal.next_seq() + 100)] =
      storage.blobs()[names.front()];
  ExpectBothReadersFailClosed(storage, 1);
}

TEST(DurableLogTest, StaleGenerationSegmentFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 4);

  // The newest checkpoint says generation 2 (a kRestore happened); gen-1
  // segments still on disk are another timeline's records.
  ExpectBothReadersFailClosed(storage, 2);
}

TEST(DurableLogTest, MissingMiddleSegmentFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 9);

  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_GE(names.size(), 3u);
  ASSERT_TRUE(storage.Remove(names[1]));  // seq discontinuity
  ExpectBothReadersFailClosed(storage, 1);
}

TEST(DurableLogTest, ReapedRangeGapFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 9);

  // Retention for a checkpoint at seq 5 reaps the sealed segments it
  // covers. A reader that still needs seq 1 must refuse, not start later.
  wal.Retain(5);
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  uint64_t first_seq = 0;
  ASSERT_TRUE(ParseSegmentName(names.front(), &first_seq));
  ASSERT_GT(first_seq, 1u);
  const LogScan scan = ScanWal(storage, 1, 0, false);
  EXPECT_FALSE(scan.ok);
  EXPECT_NE(scan.error.find("replay gap after checkpoint"), std::string::npos)
      << scan.error;
  const WalRange range = ReadWalRange(storage, 1, 0, 0, nullptr, nullptr);
  EXPECT_FALSE(range.ok);
  EXPECT_NE(range.error.find("replay gap after checkpoint"),
            std::string::npos)
      << range.error;

  // Both readers start cleanly from what survived.
  EXPECT_TRUE(ScanWal(storage, 1, first_seq - 1, false).ok);
  const WalRange rest =
      ReadWalRange(storage, 1, first_seq - 1, 0, nullptr, nullptr);
  ASSERT_TRUE(rest.ok) << rest.error;
  EXPECT_TRUE(rest.exhausted);
  EXPECT_EQ(rest.next_after, 9u);
  EXPECT_EQ(rest.items.size(), 9 - (first_seq - 1));
}

TEST(DurableLogTest, RangeReadStopsAtRecordBoundaries) {
  // Records of 3, 2, 4 and 1 items (seqs 1-4), across rotating segments.
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  std::vector<Item> all;
  for (const size_t count : {3u, 2u, 4u, 1u}) {
    std::vector<Item> record;
    for (size_t i = 0; i < count; ++i) {
      record.push_back({all.size() + 1, 10.0 * static_cast<double>(count)});
      all.push_back(record.back());
    }
    ASSERT_TRUE(wal.Append(record, nullptr));
  }
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_GE(names.size(), 2u);

  // max_items = 0 is unbounded. A record is never split: the read stops
  // before a record that would cross the bound — except that a first record
  // larger than the bound still ships whole. `exhausted` is exact: it is
  // set only when no record past next_after exists.
  struct Case {
    uint64_t after_seq;
    size_t max_items;
    size_t want_items;  // a prefix of the items after after_seq
    uint64_t want_next_after;
    bool want_exhausted;
  };
  const Case cases[] = {
      {0, 0, 10, 4, true},  {0, 3, 3, 1, false}, {0, 4, 3, 1, false},
      {0, 5, 5, 2, false},  {0, 2, 3, 1, false}, {1, 6, 6, 3, false},
      {2, 4, 4, 3, false},  {3, 1, 1, 4, true},  {3, 4, 1, 4, true},
      {4, 0, 0, 4, true},   {4, 5, 0, 4, true},
  };
  const size_t first_item[] = {0, 3, 5, 9, 10};  // by after_seq
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "after_seq " << c.after_seq
                                      << ", max_items " << c.max_items);
    const WalRange range =
        ReadWalRange(storage, 1, c.after_seq, c.max_items, nullptr, nullptr);
    ASSERT_TRUE(range.ok) << range.error;
    const auto begin = all.begin() + static_cast<std::ptrdiff_t>(
                                         first_item[c.after_seq]);
    EXPECT_TRUE(SameItems(
        range.items,
        {begin, begin + static_cast<std::ptrdiff_t>(c.want_items)}));
    EXPECT_EQ(range.next_after, c.want_next_after);
    EXPECT_EQ(range.exhausted, c.want_exhausted);
  }

  // A keep filter drops items but not records: filtered records advance
  // next_after and count toward no bound, even once it is reached.
  auto even = +[](const Item& item, void*) { return item.key % 2 == 0; };
  const WalRange filtered = ReadWalRange(storage, 1, 0, 2, even, nullptr);
  ASSERT_TRUE(filtered.ok) << filtered.error;
  EXPECT_TRUE(SameItems(filtered.items, {all[1], all[3]}));
  EXPECT_EQ(filtered.next_after, 2u);
  EXPECT_FALSE(filtered.exhausted);
  auto first_record = +[](const Item& item, void*) { return item.key <= 3; };
  const WalRange drained =
      ReadWalRange(storage, 1, 0, 3, first_record, nullptr);
  ASSERT_TRUE(drained.ok) << drained.error;
  EXPECT_TRUE(SameItems(drained.items, {all[0], all[1], all[2]}));
  EXPECT_EQ(drained.next_after, 4u);
  EXPECT_TRUE(drained.exhausted);
}

TEST(DurableLogTest, EmptyFinalSegmentIsLegal) {
  MemStorage storage;
  {
    WalWriter wal(&storage, SmallSegments());
    ASSERT_TRUE(wal.Init(1, 1));
    AppendRecords(wal, 5);
  }
  // A restart opens a fresh segment that may never receive a record before
  // the next crash; header-only is a legal final shape.
  WalWriter wal2(&storage, SmallSegments());
  ASSERT_TRUE(wal2.Init(1, 6));
  const LogScan scan = ScanWal(storage, 1, 0, false);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.tail_records, 5u);
  EXPECT_EQ(scan.next_seq, 6u);
}

TEST(DurableLogTest, RetainReapsOnlyCoveredSealedSegments) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  const std::vector<Item> items = AppendRecords(wal, 10);

  std::vector<std::string> before;
  ASSERT_TRUE(storage.List(&before));
  ASSERT_GE(before.size(), 3u);

  // A checkpoint covering everything reaps every sealed segment but never
  // the active one, and the remaining log still scans clean.
  wal.Retain(wal.next_seq() - 1);
  std::vector<std::string> after;
  ASSERT_TRUE(storage.List(&after));
  EXPECT_LT(after.size(), before.size());
  ASSERT_FALSE(after.empty());
  const LogScan scan = ScanWal(storage, 1, wal.next_seq() - 1, false);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.tail_records, 0u);

  // Retain(0) covers nothing: a no-op.
  std::vector<std::string> untouched;
  wal.Retain(0);
  ASSERT_TRUE(storage.List(&untouched));
  EXPECT_EQ(untouched, after);
}

TEST(DurableLogTest, ResetTimelineRestartsAtSeqOne) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 6);

  ASSERT_TRUE(wal.ResetTimeline(2));
  EXPECT_EQ(wal.wal_gen(), 2u);
  EXPECT_EQ(wal.next_seq(), 1u);
  const std::vector<Item> fresh = AppendRecords(wal, 2, /*key_base=*/900);

  const LogScan scan = ScanWal(storage, 2, 0, false);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.wal_gen, 2u);
  EXPECT_TRUE(SameItems(scan.tail, fresh));
  EXPECT_EQ(scan.next_seq, 3u);
}

TEST(DurableCheckpointTest, FullRoundTripWithRngCarry) {
  MemStorage storage;
  CheckpointStore store(&storage);

  const std::vector<uint8_t> blob{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<RngState> rng{{11, 12, 13, 14}, {21, 22, 23, 24}};
  ASSERT_TRUE(store.Write(1, /*wal_gen=*/3, /*covered_seq=*/7, blob, rng));
  const std::vector<uint8_t> newer{9, 8, 7};
  const std::vector<RngState> newer_rng{{31, 32, 33, 34}, {41, 42, 43, 44}};
  ASSERT_TRUE(store.Write(2, /*wal_gen=*/3, /*covered_seq=*/9, newer,
                          newer_rng));

  const LoadedCheckpoint loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.id, 2u);
  EXPECT_EQ(loaded.wal_gen, 3u);
  EXPECT_EQ(loaded.covered_seq, 9u);
  EXPECT_EQ(loaded.state, newer);
  EXPECT_EQ(loaded.rng, newer_rng);
  EXPECT_TRUE(loaded.warning.empty());
}

TEST(DurableCheckpointTest, CorruptTopFallsBackWithWarning) {
  MemStorage storage;
  CheckpointStore store(&storage);
  ASSERT_TRUE(store.Write(1, 1, 5, {1, 2, 3}, {{1, 2, 3, 4}}));
  ASSERT_TRUE(store.Write(2, 1, 8, {42}, {{5, 6, 7, 8}}));

  std::vector<uint8_t>& top = storage.blobs()[CheckpointName(2)];
  top[top.size() / 2] ^= 0x01;

  const LoadedCheckpoint loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.id, 1u);  // fell back past the corrupt top
  EXPECT_EQ(loaded.covered_seq, 5u);
  EXPECT_EQ(loaded.state, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_NE(loaded.warning.find(CheckpointName(2)), std::string::npos)
      << loaded.warning;
}

TEST(DurableCheckpointTest, AllChainsCorruptFailsClosed) {
  MemStorage storage;
  CheckpointStore store(&storage);
  ASSERT_TRUE(store.Write(1, 1, 5, {1, 2, 3}, {{1, 2, 3, 4}}));
  std::vector<uint8_t>& only = storage.blobs()[CheckpointName(1)];
  only[only.size() / 2] ^= 0x01;

  const LoadedCheckpoint loaded = store.LoadNewest();
  EXPECT_FALSE(loaded.ok);  // a checkpoint exists but none validates
  EXPECT_FALSE(loaded.error.empty());
}

TEST(DurableCheckpointTest, EmptyStoreIsACleanSlate) {
  MemStorage storage;
  CheckpointStore store(&storage);
  const LoadedCheckpoint loaded = store.LoadNewest();
  EXPECT_TRUE(loaded.ok);
  EXPECT_FALSE(loaded.found);
}

TEST(DurableCheckpointTest, RetainDeletesBelowChainBase) {
  MemStorage storage;
  CheckpointStore store(&storage);
  ASSERT_TRUE(store.Write(1, 1, 5, {1}, {{1, 2, 3, 4}}));
  ASSERT_TRUE(store.Write(2, 1, 9, {2}, {{5, 6, 7, 8}}));
  store.Retain(2);
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], CheckpointName(2));
  const LoadedCheckpoint loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.id, 2u);

  store.RemoveAll();
  ASSERT_TRUE(storage.List(&names));
  EXPECT_TRUE(names.empty());
}

// --- Data directories written by older builds ------------------------------

/// Test-local encoder of the v1 delta layout older builds wrote next to full
/// checkpoints (kind 1, parent-linked, only the listed shards):
///   WrapCrc({u32 "QFCP", u32 1, u64 id, u64 parent_id, u64 wal_gen,
///            u64 covered_seq, u8 kind=1, u32 total_shards, u32 ndirty,
///            ndirty x (u32 shard, 4 x u64 rng, u64 len, bytes)})
std::vector<uint8_t> EncodeV1Delta(uint64_t id, uint64_t parent_id,
                                   uint64_t wal_gen, uint64_t covered_seq,
                                   uint32_t total_shards, uint32_t shard,
                                   const RngState& rng,
                                   const std::vector<uint8_t>& bytes) {
  std::vector<uint8_t> payload;
  AppendPod(kCheckpointMagic, &payload);
  AppendPod(uint32_t{1}, &payload);
  AppendPod(id, &payload);
  AppendPod(parent_id, &payload);
  AppendPod(wal_gen, &payload);
  AppendPod(covered_seq, &payload);
  AppendPod(uint8_t{1}, &payload);
  AppendPod(total_shards, &payload);
  AppendPod(uint32_t{1}, &payload);
  AppendPod(shard, &payload);
  for (uint64_t word : rng) AppendPod(word, &payload);
  AppendPod(static_cast<uint64_t>(bytes.size()), &payload);
  payload.insert(payload.end(), bytes.begin(), bytes.end());
  return WrapCrc(std::move(payload));
}

net::QfServer::Options UpgradeServerOptions(MemStorage* storage) {
  net::QfServer::Options opts;
  opts.port = 0;
  opts.num_shards = 2;
  opts.filter.memory_bytes = 64 * 1024;
  opts.criteria = Criteria(5.0, 0.9, 100.0);
  opts.durable.storage = storage;
  opts.durable.fsync = FsyncMode::kNone;
  return opts;
}

/// An older build's data dir: 20 logged records, a full checkpoint covering
/// the first 10, and a delta top (id 2) covering all 20 whose shard-0 bytes
/// hold items the log never saw — applying any of it would show. `mirror`
/// gets exactly the logged items. With `reap`, retention ran for the delta
/// top, as the older build did, so the log no longer covers seqs 11-20.
void WriteOlderDataDir(const net::QfServer::Options& opts,
                       MemStorage* storage, net::QfServer::Sharded* mirror,
                       bool reap) {
  WalOptions wopts;
  wopts.segment_bytes = 256;  // two 8-item records per segment
  wopts.fsync = FsyncMode::kNone;
  WalWriter wal(storage, wopts);
  ASSERT_TRUE(wal.Init(1, 1));
  CheckpointStore store(storage);
  const double values[] = {10.0, 150.0, 600.0};
  for (uint64_t r = 1; r <= 20; ++r) {
    std::vector<Item> record;
    for (uint64_t i = 0; i < 8; ++i) {
      record.push_back({1 + (r * 7 + i * 3) % 40, values[(r + i) % 3]});
      mirror->Insert(record.back().key, record.back().value);
    }
    ASSERT_TRUE(wal.Append(record, nullptr));
    if (r == 10) {
      ASSERT_TRUE(store.Write(1, wal.wal_gen(), 10, mirror->SerializeState(),
                              GatherRngStates(*mirror)));
    }
  }
  net::QfServer::Sharded diverged(opts.filter, opts.criteria,
                                  opts.num_shards);
  ASSERT_TRUE(diverged.RestoreState(mirror->SerializeState()));
  for (uint64_t k = 1; k <= 40; ++k) diverged.Insert(k, 600.0);
  RngState rng{};
  diverged.shard(0).GetRngState(rng.data());
  storage->blobs()[CheckpointName(2)] =
      EncodeV1Delta(2, 1, wal.wal_gen(), 20, 2, 0, rng,
                    diverged.shard(0).SerializeState());
  if (reap) wal.Retain(20);
}

TEST(DurableUpgradeTest, OlderDeltaTopIsSkippedAndTheLogReplaysPastIt) {
  MemStorage storage;
  const net::QfServer::Options opts = UpgradeServerOptions(&storage);
  net::QfServer::Sharded mirror(opts.filter, opts.criteria, opts.num_shards);
  WriteOlderDataDir(opts, &storage, &mirror, /*reap=*/false);

  CheckpointStore store(&storage);
  const LoadedCheckpoint loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.id, 1u);
  EXPECT_NE(loaded.warning.find(CheckpointName(2)), std::string::npos)
      << loaded.warning;

  net::QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  EXPECT_EQ(server.recovery().checkpoint_id, 1u);
  EXPECT_EQ(server.recovery().replayed_records, 10u);
  EXPECT_NE(server.recovery().warning.find(CheckpointName(2)),
            std::string::npos);
  net::QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 40; ++k) keys.push_back(k);
  std::vector<net::QueryAnswer> answers;
  ASSERT_TRUE(client.Query(keys, &answers)) << client.error();
  ASSERT_EQ(answers.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i].qweight, mirror.QueryQweight(keys[i]))
        << "key " << keys[i];
    EXPECT_EQ(answers[i].is_candidate != 0, mirror.IsCandidate(keys[i]))
        << "key " << keys[i];
  }
  client.Close();
  server.Stop();
}

TEST(DurableUpgradeTest, OlderDeltaTopOverReapedLogFailsClosed) {
  MemStorage storage;
  const net::QfServer::Options opts = UpgradeServerOptions(&storage);
  net::QfServer::Sharded mirror(opts.filter, opts.criteria, opts.num_shards);
  WriteOlderDataDir(opts, &storage, &mirror, /*reap=*/true);

  const Recovered rec = Recover(storage, {});
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.warning.find(CheckpointName(2)), std::string::npos)
      << rec.warning;
  EXPECT_NE(rec.error.find("replay gap after checkpoint"), std::string::npos)
      << rec.error;

  net::QfServer server(opts);
  EXPECT_FALSE(server.Start());
  EXPECT_NE(server.error().find("replay gap after checkpoint"),
            std::string::npos)
      << server.error();
}

// The serving layer's recovery counters must survive the exporter path end
// to end: a replayed boot that is invisible in /metrics hides data loss.
TEST(DurableMetricsTest, DurableCounterNamesRenderAndValidate) {
  obs::MetricsRegistry r;
  r.GetCounter("qf_durable_segments_written_total",
               "WAL segment files opened")
      .Add(3);
  r.GetCounter("qf_durable_records_appended_total",
               "ingest batches appended to the WAL")
      .Add(120);
  r.GetCounter("qf_durable_records_replayed_total",
               "WAL records re-driven through the pipeline at boot")
      .Add(7);
  r.GetCounter("qf_durable_torn_truncations_total",
               "torn trailing WAL frames truncated during recovery")
      .Add(1);
  r.GetCounter("qf_durable_checkpoints_written_total",
               "checkpoints written")
      .Add(4);

  const std::string text = obs::RenderPrometheus(r.Snapshot());
  const obs::PromValidation v = obs::ValidatePrometheusText(text);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.families, 5u);
  EXPECT_NE(text.find("# TYPE qf_durable_records_appended_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("qf_durable_records_appended_total 120"),
            std::string::npos);
  EXPECT_NE(text.find("qf_durable_torn_truncations_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("qf_durable_records_replayed_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("qf_durable_segments_written_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("qf_durable_checkpoints_written_total 4"),
            std::string::npos);
}

#if QF_METRICS
// End-to-end wiring: a durable serving run (ingest → clean stop → recovered
// restart) must leave qf_durable_* counters in the GLOBAL registry, and
// MetricsSink — the path qf_top --once tails — must export them through
// both formats.
TEST(DurableMetricsTest, ServerPublishesCountersThroughMetricsSink) {
  MemStorage storage;
  net::QfServer::Options opts;
  opts.port = 0;
  opts.num_shards = 2;
  opts.filter.memory_bytes = 64 * 1024;
  opts.criteria = Criteria(5.0, 0.9, 100.0);
  opts.durable.storage = &storage;
  opts.durable.fsync = FsyncMode::kNone;
  opts.durable.segment_bytes = 1024;

  {
    net::QfServer server(opts);
    ASSERT_TRUE(server.Start()) << server.error();
    net::QfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.error();
    std::vector<Item> batch;
    for (uint64_t k = 1; k <= 64; ++k) batch.push_back({k, 150.0});
    for (int b = 0; b < 4; ++b) {
      ASSERT_TRUE(client.Ingest(batch)) << client.error();
    }
    ASSERT_TRUE(client.Drain()) << client.error();
    const net::WireStats stats = server.StatsSnapshot();
    EXPECT_EQ(stats.wal_records_appended, 4u);
    client.Close();
    server.Stop();  // clean stop writes the final full checkpoint
  }

  net::QfServer server2(opts);
  ASSERT_TRUE(server2.Start()) << server2.error();
  EXPECT_TRUE(server2.recovery().durable);
  EXPECT_TRUE(server2.recovery().had_checkpoint);
  server2.Stop();

  const std::string prom_path = TestTempPath("durable_metrics.prom");
  const std::string jsonl_path = TestTempPath("durable_metrics.jsonl");
  obs::MetricsSink::Options sink_opts;
  sink_opts.prom_path = prom_path;
  sink_opts.jsonl_path = jsonl_path;
  obs::MetricsSink sink(obs::MetricsRegistry::Global(), sink_opts);
  ASSERT_TRUE(sink.WriteOnce());

  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream text;
  text << prom.rdbuf();
  const obs::PromValidation v = obs::ValidatePrometheusText(text.str());
  ASSERT_TRUE(v.ok) << v.error;
  for (const char* name :
       {"qf_durable_segments_written_total",
        "qf_durable_records_appended_total",
        "qf_durable_records_replayed_total",
        "qf_durable_torn_truncations_total",
        "qf_durable_checkpoints_written_total"}) {
    EXPECT_NE(text.str().find(name), std::string::npos) << name;
  }

  std::ifstream jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(line + "\n", &doc, &error)) << error;
  const obs::JsonValue* counters = doc.Get("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* appended =
      counters->Get("qf_durable_records_appended_total");
  ASSERT_NE(appended, nullptr);
  EXPECT_GE(appended->NumberOr(0), 4.0);
  std::remove(prom_path.c_str());
  std::remove(jsonl_path.c_str());
}
#endif  // QF_METRICS

}  // namespace
}  // namespace qf::durable
