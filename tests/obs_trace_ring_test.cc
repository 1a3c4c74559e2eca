// TraceRing: disabled no-op, capacity wrap keeping the newest entries,
// duration saturation, oldest-first extraction and the chrome://tracing
// JSON dump (validated with the repo's own JSON parser).

#include "obs/trace_ring.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "temp_path.h"

namespace qf::obs {
namespace {

TEST(ObsTraceRingTest, DisabledRingRecordsNothing) {
  TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.Emit(TraceEvent::kBatchProcess, 0, 100, 10, 1);
  EXPECT_EQ(ring.CountEntries(), 0u);
  EXPECT_EQ(ring.TotalEmitted(), 0u);
}

TEST(ObsTraceRingTest, CapacityRoundsDownToPowerOfTwo) {
  TraceRing ring;
  ring.Enable(100);
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(ObsTraceRingTest, KeepsTheMostRecentEntriesAfterWrap) {
  TraceRing ring;
  ring.Enable(8);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Emit(TraceEvent::kBatchProcess, 1, 1000 + i, 5, i);
  }
  EXPECT_EQ(ring.TotalEmitted(), 20u);
  EXPECT_EQ(ring.CountEntries(), 8u);
  const std::vector<TraceEntry> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 8u);
  // Oldest-first: args 12..19 survive the wrap.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].arg, 12 + i);
    EXPECT_EQ(entries[i].start_ns, 1000 + 12 + i);
  }
}

TEST(ObsTraceRingTest, DurationSaturatesAtUint32Max) {
  TraceRing ring;
  ring.Enable(4);
  ring.Emit(TraceEvent::kFlush, 0, 10, uint64_t{1} << 40, 0);
  const std::vector<TraceEntry> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].dur_ns, UINT32_MAX);
}

TEST(ObsTraceRingTest, ReEnableResetsTheRing) {
  TraceRing ring;
  ring.Enable(8);
  ring.Emit(TraceEvent::kBatchShip, 0, 1, 1, 1);
  ring.Disable();
  ring.Enable(8);
  EXPECT_EQ(ring.CountEntries(), 0u);
}

TEST(ObsTraceRingTest, ConcurrentEmitLosesNoSlots) {
  // Slot claims are a relaxed fetch_add: with capacity >= total emits,
  // every entry must land (payloads are plain stores, so validation reads
  // only after joins). Runs under TSan via the sanitizer label.
  TraceRing ring;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1 << 12;
  ring.Enable(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Emit(TraceEvent::kBatchProcess, static_cast<uint16_t>(t),
                  i + 1, 1, i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.TotalEmitted(), kThreads * kPerThread);
  EXPECT_EQ(ring.CountEntries(), kThreads * kPerThread);
  uint64_t per_tid[kThreads] = {};
  for (const TraceEntry& e : ring.Entries()) {
    ASSERT_LT(e.tid, kThreads);
    ++per_tid[e.tid];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_tid[t], kPerThread) << "tid " << t;
  }
}

TEST(ObsTraceRingTest, ChromeJsonDumpParsesAndSortsByStart) {
  TraceRing ring;
  ring.Enable(16);
  // Emit out of start order; the dump must sort by start_ns.
  ring.Emit(TraceEvent::kBatchProcess, 2, 3000, 500, 32);
  ring.Emit(TraceEvent::kRingStall, 0, 1000, 200, 7);
  ring.Emit(TraceEvent::kBatchShip, 1, 2000, 0, 32);

  const std::string path = TestTempPath("trace_ring.trace.json");
  ASSERT_TRUE(ring.DumpChromeJson(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(text.str(), &doc, &error)) << error;

  const JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  double prev_ts = 0.0;
  for (const auto& e : events->array) {
    ASSERT_EQ(e->Get("ph")->string, "X");
    const double ts = e->Get("ts")->NumberOr(-1);
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
  }
  EXPECT_EQ(events->array[0]->Get("name")->string, "ring_stall");
  EXPECT_EQ(events->array[1]->Get("name")->string, "batch_ship");
  EXPECT_EQ(events->array[2]->Get("name")->string, "batch_process");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qf::obs
