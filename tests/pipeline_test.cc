// IngestPipeline end-to-end: a 4-shard pipeline under concurrent load must
// produce, per shard, exactly the reports and state of a single-threaded
// oracle run over the same trace — the disjoint-shard contract makes the
// parallel execution deterministic at shard granularity.

#include "parallel/pipeline.h"

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_filter.h"
#include "resident_memory.h"
#include "stream/generators.h"

namespace qf {
namespace {

using Sharded = ShardedQuantileFilter<CountSketch<int16_t>>;
using Pipeline = IngestPipeline<CountSketch<int16_t>>;

Sharded::Filter::Options FilterOptions() {
  Sharded::Filter::Options o;
  o.memory_bytes = 128 * 1024;  // split across shards; tight enough to
                                // exercise the vague/election paths
  return o;
}

Trace MakeTrace(size_t items) {
  ZipfTraceOptions o;
  o.num_items = items;
  o.num_keys = 20'000;
  o.seed = 99;
  return GenerateZipfTrace(o);
}

void ExpectStatsEqual(const Sharded::Filter::Stats& a,
                      const Sharded::Filter::Stats& b) {
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.candidate_hits, b.candidate_hits);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.vague_inserts, b.vague_inserts);
  EXPECT_EQ(a.swaps, b.swaps);
}

TEST(PipelineTest, FourShardsMatchSequentialOracleExactly) {
  const Criteria criteria(30, 0.95, 300);
  const Trace trace = MakeTrace(400'000);
  const int kShards = 4;

  // Oracle: same sharded filter driven one item at a time on one thread.
  Sharded oracle(FilterOptions(), criteria, kShards);
  std::vector<std::vector<uint64_t>> oracle_reports(kShards);
  for (const Item& item : trace) {
    const int s = oracle.ShardFor(item.key);
    if (oracle.Insert(item.key, item.value)) {
      oracle_reports[static_cast<size_t>(s)].push_back(item.key);
    }
  }

  // Pipeline: dispatcher thread + 4 worker threads.
  Sharded parallel(FilterOptions(), criteria, kShards);
  Pipeline::Options po;
  po.collect_reported_keys = true;
  Pipeline pipeline(parallel, po);
  const uint64_t total_reports = pipeline.RunTrace(std::span<const Item>(trace));

  const Pipeline::Totals totals = pipeline.totals();
  EXPECT_EQ(totals.items_dispatched, trace.size());
  EXPECT_EQ(totals.items_processed, trace.size());
  EXPECT_EQ(totals.reports, total_reports);

  uint64_t oracle_total = 0;
  for (int s = 0; s < kShards; ++s) {
    oracle_total += oracle_reports[static_cast<size_t>(s)].size();
    // Same reported keys, in the same per-shard order.
    EXPECT_EQ(pipeline.reported_keys(s), oracle_reports[static_cast<size_t>(s)])
        << "shard " << s;
    EXPECT_EQ(pipeline.shard_reports(s),
              oracle_reports[static_cast<size_t>(s)].size());
    // Identical per-shard statistics and serialized state.
    ExpectStatsEqual(parallel.shard(s).stats(), oracle.shard(s).stats());
    EXPECT_EQ(parallel.shard(s).SerializeState(),
              oracle.shard(s).SerializeState())
        << "shard " << s;
  }
  EXPECT_EQ(total_reports, oracle_total);
  ExpectStatsEqual(parallel.AggregateStats(), oracle.AggregateStats());
}

TEST(PipelineTest, GracefulShutdownLosesNothing) {
  Sharded filter(FilterOptions(), Criteria(30, 0.95, 300), 3);
  Pipeline pipeline(filter);
  pipeline.Start();
  // 1000 items stay far below a quarter arena and are never flushed: Stop
  // must publish the staged runs itself.
  for (uint64_t i = 0; i < 1000; ++i) {
    pipeline.Push(i, 500.0);
  }
  pipeline.Stop();
  EXPECT_EQ(pipeline.totals().items_dispatched, 1000u);
  EXPECT_EQ(pipeline.totals().items_processed, 1000u);
  EXPECT_EQ(filter.AggregateStats().items, 1000u);
}

TEST(PipelineTest, BackpressureOnTinyRingsStillDeliversAll) {
  Sharded filter(FilterOptions(), Criteria(30, 0.95, 300), 2);
  Pipeline::Options po;
  po.ring_batches = 2;  // tiny rings force dispatcher waits
  Pipeline pipeline(filter, po);
  pipeline.Start();
  for (uint64_t i = 0; i < 50'000; ++i) {
    pipeline.Push(i, i % 2 ? 500.0 : 10.0);
    pipeline.Flush();  // single-item spans: the 2-slot rings fill up
  }
  pipeline.Stop();
  EXPECT_EQ(pipeline.totals().items_processed, 50'000u);
  EXPECT_EQ(pipeline.totals().batches, 50'000u);
  EXPECT_GT(pipeline.totals().ring_full_waits, 0u);
  EXPECT_EQ(filter.AggregateStats().items, 50'000u);
}

TEST(PipelineTest, StopIsIdempotentAndRestartable) {
  Sharded filter(FilterOptions(), Criteria(30, 0.95, 300), 2);
  Pipeline pipeline(filter);
  pipeline.Start();
  for (uint64_t i = 0; i < 100; ++i) pipeline.Push(i, 500.0);
  pipeline.Stop();
  pipeline.Stop();  // no-op
  pipeline.Start();
  for (uint64_t i = 0; i < 100; ++i) pipeline.Push(i, 500.0);
  pipeline.Stop();
  EXPECT_EQ(pipeline.totals().items_processed, 200u);
  EXPECT_EQ(filter.AggregateStats().items, 200u);
}

TEST(PipelineTest, DestructorStopsRunningPipeline) {
  Sharded filter(FilterOptions(), Criteria(30, 0.95, 300), 2);
  {
    Pipeline pipeline(filter);
    pipeline.Start();
    for (uint64_t i = 0; i < 500; ++i) pipeline.Push(i, 500.0);
    // No explicit Stop: the destructor must flush and join.
  }
  EXPECT_EQ(filter.AggregateStats().items, 500u);
}

TEST(PipelineTest, PushToShardMatchesPush) {
  // The serving layer's decode-time scatter path (ShardFor computed by the
  // caller, then PushToShard) must leave the filter bit-identical to plain
  // Push over the same stream.
  const Criteria criteria(30, 0.95, 300);
  const Trace trace = MakeTrace(200'000);
  const int kShards = 4;

  Sharded via_push(FilterOptions(), criteria, kShards);
  Sharded via_shard(FilterOptions(), criteria, kShards);
  Pipeline plain(via_push);
  Pipeline scattered(via_shard);

  plain.RunTrace(std::span<const Item>(trace));

  scattered.Start();
  std::thread dispatcher([&] {
    for (const Item& item : trace) {
      scattered.PushToShard(via_shard.ShardFor(item.key), item.key,
                            item.value);
    }
    scattered.Flush();
  });
  dispatcher.join();
  scattered.Stop();

  EXPECT_EQ(scattered.totals().items_processed, trace.size());
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(via_shard.shard(s).SerializeState(),
              via_push.shard(s).SerializeState())
        << "shard " << s;
  }
}

TEST(PipelineTest, ArenaWrapSpansStayBitIdentical) {
  // A tiny descriptor ring forces the arena sequence numbers far past the
  // arena size, so published spans regularly wrap the arena end and take
  // the split-into-two-InsertBatch path.
  const Criteria criteria(30, 0.95, 300);
  const Trace trace = MakeTrace(150'000);

  Sharded serial(FilterOptions(), criteria, 1);
  for (const Item& item : trace) serial.Insert(item.key, item.value);

  Sharded piped(FilterOptions(), criteria, 1);
  Pipeline::Options po;
  po.ring_batches = 2;  // arena = 128 items, quarter-arena spans of 32
  Pipeline pipeline(piped, po);
  pipeline.Start();
  // A flush every 45 items after the 32-item quarter-arena publish makes
  // 32 + 13 item spans, so spans start at non-power-of-2 offsets.
  for (size_t i = 0; i < trace.size(); ++i) {
    pipeline.Push(trace[i]);
    if (i % 45 == 44) pipeline.Flush();
  }
  pipeline.Stop();

  EXPECT_EQ(pipeline.totals().items_processed, trace.size());
  EXPECT_EQ(piped.shard(0).SerializeState(), serial.shard(0).SerializeState());
}

TEST(PipelineTest, SingleShardPipelineMatchesPlainFilter) {
  const Criteria criteria(30, 0.95, 300);
  const Trace trace = MakeTrace(50'000);

  Sharded serial(FilterOptions(), criteria, 1);
  uint64_t serial_reports = 0;
  for (const Item& item : trace) {
    serial_reports += serial.Insert(item.key, item.value);
  }

  Sharded piped(FilterOptions(), criteria, 1);
  Pipeline pipeline(piped);
  const uint64_t reports = pipeline.RunTrace(std::span<const Item>(trace));

  EXPECT_EQ(reports, serial_reports);
  EXPECT_EQ(piped.shard(0).SerializeState(), serial.shard(0).SerializeState());
}

TEST(PipelineTest, AlertRingsCommitOnFirstAlert) {
  QF_SKIP_IF_RSS_MEANINGLESS();
  constexpr int64_t kMiB = 1 << 20;
  const Criteria criteria(30, 0.95, 300);
  const Trace trace = MakeTrace(100'000);
  Sharded::Filter::Options fopts;
  fopts.memory_bytes = 1 << 20;  // the whole filter's budget

  const int64_t before = ResidentBytes();
  ASSERT_GE(before, 0) << "/proc/self/statm unreadable";
  Sharded filter(fopts, criteria, 2);
  Pipeline::Options popts;
  // 4Mi records per shard: 96 MiB each if the rings were written at boot.
  popts.alert_ring_records = size_t{1} << 22;
  Pipeline pipeline(filter, popts);
  pipeline.Start();
  const int64_t booted = ResidentBytes();
  const int64_t budget = static_cast<int64_t>(fopts.memory_bytes);
  EXPECT_LT(booted - before, budget + 4 * kMiB)
      << "boot committed ring capacity that no alert has used";

  // The rings still carry every report once alerts fire.
  const uint64_t reports = pipeline.RunTrace(std::span<const Item>(trace));
  ASSERT_GT(reports, 0u);
  const size_t drained =
      pipeline.DrainAlerts([](int, const Pipeline::AlertRecord&) {});
  EXPECT_EQ(drained, reports);
  EXPECT_EQ(pipeline.totals().alerts_dropped, 0u);
}

}  // namespace
}  // namespace qf
