// Durability layer corruption suite (DESIGN.md §14): the WAL recovery
// rules — torn trailing frames repair to the exact valid prefix, every
// other corruption shape fails closed — plus checkpoint round-trips with
// RNG carry, corrupt-top fallback, retention, and the qf_durable_* metric
// names surviving the Prometheus exporter's own validator. All against
// MemStorage, where "disk surgery" is plain vector surgery.

#include "durable/log.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "durable/checkpoint.h"
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
  const LogScan scan = ScanWal(storage, 1, 0, false);
  EXPECT_FALSE(scan.ok);
  EXPECT_FALSE(scan.error.empty());
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
  EXPECT_FALSE(ScanWal(storage, 1, 0, false).ok);
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
  EXPECT_FALSE(ScanWal(storage, 1, 0, false).ok);
}

TEST(DurableLogTest, StaleGenerationSegmentFailsClosed) {
  MemStorage storage;
  WalWriter wal(&storage, SmallSegments());
  ASSERT_TRUE(wal.Init(1, 1));
  AppendRecords(wal, 4);

  // The newest checkpoint says generation 2 (a kRestore happened); gen-1
  // segments still on disk are another timeline's records.
  EXPECT_FALSE(ScanWal(storage, 2, 0, false).ok);
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
  EXPECT_FALSE(ScanWal(storage, 1, 0, false).ok);
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

TEST(DurableCheckpointTest, FullAndDeltaRoundTripWithRngCarry) {
  MemStorage storage;
  CheckpointStore store(&storage);

  const std::vector<uint8_t> blob{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<RngState> rng{{11, 12, 13, 14}, {21, 22, 23, 24}};
  ASSERT_TRUE(store.WriteFull(1, /*wal_gen=*/3, /*covered_seq=*/7, blob,
                              rng));

  ShardDelta dirty;
  dirty.shard = 1;
  dirty.rng = {31, 32, 33, 34};
  dirty.bytes = {9, 8, 7};
  ASSERT_TRUE(store.WriteDelta(2, /*parent_id=*/1, /*wal_gen=*/3,
                               /*covered_seq=*/9, /*total_shards=*/2,
                               {dirty}));

  const LoadedCheckpoints loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.id, 2u);
  EXPECT_EQ(loaded.base_id, 1u);
  EXPECT_EQ(loaded.wal_gen, 3u);
  EXPECT_EQ(loaded.covered_seq, 9u);
  EXPECT_EQ(loaded.total_shards, 2u);
  EXPECT_EQ(loaded.base, blob);
  ASSERT_EQ(loaded.base_rng.size(), 2u);
  EXPECT_EQ(loaded.base_rng[0], rng[0]);
  EXPECT_EQ(loaded.base_rng[1], rng[1]);
  ASSERT_EQ(loaded.deltas.size(), 1u);
  ASSERT_EQ(loaded.deltas[0].size(), 1u);
  EXPECT_EQ(loaded.deltas[0][0].shard, 1u);
  EXPECT_EQ(loaded.deltas[0][0].rng, dirty.rng);
  EXPECT_EQ(loaded.deltas[0][0].bytes, dirty.bytes);
}

TEST(DurableCheckpointTest, CorruptTopFallsBackWithWarning) {
  MemStorage storage;
  CheckpointStore store(&storage);
  const std::vector<RngState> rng{{1, 2, 3, 4}};
  ASSERT_TRUE(store.WriteFull(1, 1, 5, {1, 2, 3}, rng));
  ShardDelta dirty;
  dirty.shard = 0;
  dirty.rng = {5, 6, 7, 8};
  dirty.bytes = {42};
  ASSERT_TRUE(store.WriteDelta(2, 1, 1, 8, 1, {dirty}));

  std::vector<uint8_t>& top = storage.blobs()[CheckpointName(2)];
  top[top.size() / 2] ^= 0x01;

  const LoadedCheckpoints loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.id, 1u);       // fell back past the corrupt delta
  EXPECT_EQ(loaded.covered_seq, 5u);
  EXPECT_TRUE(loaded.deltas.empty());
  EXPECT_FALSE(loaded.warning.empty());
}

TEST(DurableCheckpointTest, AllChainsCorruptFailsClosed) {
  MemStorage storage;
  CheckpointStore store(&storage);
  ASSERT_TRUE(store.WriteFull(1, 1, 5, {1, 2, 3}, {{1, 2, 3, 4}}));
  std::vector<uint8_t>& only = storage.blobs()[CheckpointName(1)];
  only[only.size() / 2] ^= 0x01;

  const LoadedCheckpoints loaded = store.LoadNewest();
  EXPECT_FALSE(loaded.ok);  // a checkpoint exists but none validates
  EXPECT_FALSE(loaded.error.empty());
}

TEST(DurableCheckpointTest, EmptyStoreIsACleanSlate) {
  MemStorage storage;
  CheckpointStore store(&storage);
  const LoadedCheckpoints loaded = store.LoadNewest();
  EXPECT_TRUE(loaded.ok);
  EXPECT_FALSE(loaded.found);
}

TEST(DurableCheckpointTest, RetainDeletesBelowChainBase) {
  MemStorage storage;
  CheckpointStore store(&storage);
  ASSERT_TRUE(store.WriteFull(1, 1, 5, {1}, {{1, 2, 3, 4}}));
  ASSERT_TRUE(store.WriteFull(2, 1, 9, {2}, {{5, 6, 7, 8}}));
  store.Retain(2);
  std::vector<std::string> names;
  ASSERT_TRUE(storage.List(&names));
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], CheckpointName(2));
  const LoadedCheckpoints loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.id, 2u);

  store.RemoveAll();
  ASSERT_TRUE(storage.List(&names));
  EXPECT_TRUE(names.empty());
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
               "full + delta checkpoints written")
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
