// End-to-end observability: driving filters and the ingest pipeline moves
// the global qf_* metrics exactly, per-shard series populate, trace events
// appear, and the periodic flush keeps counters exact across ClearStats.
//
// All assertions are on snapshot DELTAS: the global registry is process-wide
// and other tests in this binary also run filters.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/quantile_filter.h"
#include "core/sharded_filter.h"
#include "obs/instrument.h"
#include "parallel/pipeline.h"
#include "sketch/count_sketch.h"
#include "stream/item.h"

namespace qf {
namespace {

#if QF_METRICS

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

uint64_t HistCount(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.data.count();
  }
  return 0;
}

using Filter = QuantileFilter<CountSketch<int16_t>>;

TEST(ObsPipelineTest, FlushMetricsPublishesExactItemDeltas) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Filter::Options o;
  o.memory_bytes = 64 * 1024;
  Filter filter(o, Criteria(30, 0.95, 300));
  for (int i = 0; i < 100; ++i) filter.Insert(static_cast<uint64_t>(i), 10.0);
  filter.FlushMetrics();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(after, "qf_filter_items_total") -
                CounterValue(before, "qf_filter_items_total"),
            100u);
}

TEST(ObsPipelineTest, PeriodicFlushPublishesWithoutExplicitCall) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Filter::Options o;
  o.memory_bytes = 64 * 1024;
  Filter filter(o, Criteria(30, 0.95, 300));
  // One full flush window: the 4096th insert flushes automatically.
  for (uint64_t i = 0; i < Filter::kMetricsFlushItems; ++i) {
    filter.Insert(i % 57, 10.0);
  }
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(CounterValue(after, "qf_filter_items_total") -
                CounterValue(before, "qf_filter_items_total"),
            Filter::kMetricsFlushItems);
}

TEST(ObsPipelineTest, ClearStatsNeverLosesOrDoubleCountsItems) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Filter::Options o;
  o.memory_bytes = 64 * 1024;
  Filter filter(o, Criteria(30, 0.95, 300));
  for (int i = 0; i < 150; ++i) filter.Insert(static_cast<uint64_t>(i), 10.0);
  filter.ClearStats();  // flushes the 150, then zeroes both baselines
  for (int i = 0; i < 70; ++i) filter.Insert(static_cast<uint64_t>(i), 10.0);
  filter.FlushMetrics();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(after, "qf_filter_items_total") -
                CounterValue(before, "qf_filter_items_total"),
            220u);
}

TEST(ObsPipelineTest, RoundingTalliesFlowThroughTheTally) {
  // delta = 0.85 gives positive weight 17/3 = 5.667: every abnormal item
  // draws a probabilistic rounding, tallied thread-locally and drained by
  // the flush.
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Filter::Options o;
  o.memory_bytes = 64 * 1024;
  Filter filter(o, Criteria(30, 0.85, 300));
  for (int i = 0; i < 200; ++i) {
    filter.Insert(static_cast<uint64_t>(i), 500.0);  // abnormal (> 300)
  }
  filter.FlushMetrics();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const uint64_t up = CounterValue(after, "qf_filter_rounding_up_total") -
                      CounterValue(before, "qf_filter_rounding_up_total");
  const uint64_t down =
      CounterValue(after, "qf_filter_rounding_down_total") -
      CounterValue(before, "qf_filter_rounding_down_total");
  EXPECT_GT(up + down, 0u);
  EXPECT_GT(up, 0u);  // frac = 2/3: overwhelmingly likely both fire in 200
  EXPECT_GT(down, 0u);
}

TEST(ObsPipelineTest, PipelineRunPopulatesGlobalAndPerShardSeries) {
  constexpr int kShards = 4;
  constexpr size_t kItems = 40000;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  Filter::Options o;
  o.memory_bytes = 256 * 1024;
  ShardedQuantileFilter<CountSketch<int16_t>> sharded(
      o, Criteria(30, 0.95, 300), kShards);
  std::vector<Item> items;
  items.reserve(kItems);
  Rng rng(21);
  for (size_t i = 0; i < kItems; ++i) {
    items.push_back(Item{rng.NextBounded(5000),
                         rng.Bernoulli(0.1) ? 500.0 : 50.0});
  }
  IngestPipeline<CountSketch<int16_t>> pipeline(sharded);
  pipeline.RunTrace(std::span<const Item>(items));

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return CounterValue(after, name) - CounterValue(before, name);
  };
  EXPECT_EQ(delta("qf_pipeline_items_dispatched_total"), kItems);
  EXPECT_EQ(delta("qf_pipeline_items_processed_total"), kItems);
  EXPECT_GT(delta("qf_pipeline_batches_total"), 0u);
  // Stop() flushed every shard, so the filter-level item counter advanced
  // by exactly the item count too.
  EXPECT_EQ(delta("qf_filter_items_total"), kItems);

  for (int s = 0; s < kShards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    EXPECT_GT(HistCount(after, "qf_pipeline_ingest_batch_ns" + label) -
                  HistCount(before, "qf_pipeline_ingest_batch_ns" + label),
              0u)
        << "shard " << s;
    EXPECT_GT(HistCount(after, "qf_pipeline_batch_items" + label) -
                  HistCount(before, "qf_pipeline_batch_items" + label),
              0u)
        << "shard " << s;
    EXPECT_GT(HistCount(after, "qf_pipeline_ring_occupancy" + label) -
                  HistCount(before, "qf_pipeline_ring_occupancy" + label),
              0u)
        << "shard " << s;
  }
}

TEST(ObsPipelineTest, PipelineRunEmitsTraceEvents) {
  obs::TraceRing& ring = obs::TraceRing::Global();
  ring.Enable(1 << 12);

  Filter::Options o;
  o.memory_bytes = 64 * 1024;
  ShardedQuantileFilter<CountSketch<int16_t>> sharded(
      o, Criteria(30, 0.95, 300), 2);
  std::vector<Item> items;
  for (uint64_t i = 0; i < 10000; ++i) {
    items.push_back(Item{i % 997, 50.0});
  }
  IngestPipeline<CountSketch<int16_t>> pipeline(sharded);
  pipeline.RunTrace(std::span<const Item>(items));

  ring.Disable();  // workers joined: quiescent, safe to read
  uint64_t batch_process = 0, batch_ship = 0;
  for (const obs::TraceEntry& e : ring.Entries()) {
    batch_process +=
        e.event == static_cast<uint16_t>(obs::TraceEvent::kBatchProcess);
    batch_ship +=
        e.event == static_cast<uint16_t>(obs::TraceEvent::kBatchShip);
  }
  EXPECT_GT(batch_process, 0u);
  EXPECT_GT(batch_ship, 0u);
}

struct EveryThirdA {
  static constexpr uint32_t kEvery = 3;
};
struct EveryThirdB {
  static constexpr uint32_t kEvery = 3;
};

TEST(ObsPipelineTest, SampleHitKeepsOneCadencePerPolicy) {
  // Two policies at one rate, asked in turn as a reactor asks its timing
  // and trace decisions: each still hits on its 1st, 4th, 7th... call.
  for (int call = 0; call < 9; ++call) {
    const bool expect = call % 3 == 0;
    EXPECT_EQ(obs::SampleHit<EveryThirdA>(), expect) << call;
    EXPECT_EQ(obs::SampleHit<EveryThirdB>(), expect) << call;
  }
}

#else  // !QF_METRICS

TEST(ObsPipelineTest, MetricsCompiledOut) {
  // QF_OBS sites are gone; the stack still runs. Nothing to observe here —
  // tools/check_metrics_overhead.sh verifies the OFF build's cost.
  QuantileFilter<CountSketch<int16_t>>::Options o;
  o.memory_bytes = 64 * 1024;
  QuantileFilter<CountSketch<int16_t>> filter(o, Criteria(30, 0.95, 300));
  for (int i = 0; i < 100; ++i) filter.Insert(static_cast<uint64_t>(i), 10.0);
  filter.FlushMetrics();  // must exist and be a no-op
  filter.ClearStats();
  EXPECT_EQ(filter.stats().items, 0u);
}

#endif  // QF_METRICS

}  // namespace
}  // namespace qf
