// CONTROL kMetrics wire coverage (DESIGN.md §15): the QFMS payload codec
// must round-trip a full registry snapshot bit-exactly and fail CLOSED on
// every malformed input — truncations, oversized counts, corrupt bucket
// tables — touching the output only on success. Plus a live-server round
// trip: QfClient::FetchMetrics against an in-process QfServer must agree
// with a MetricsSink file snapshot taken at the same quiescent fence.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "temp_path.h"

namespace qf::net {
namespace {

obs::MetricsSnapshot SampleSnapshot() {
  obs::MetricsSnapshot snap;
  snap.wall_ns = 1'234'567'890;
  snap.mono_ns = 42;
  for (int i = 0; i < 3; ++i) {
    obs::CounterSample c;
    c.name = "qf_test_counter_" + std::to_string(i);
    c.value = 1000 + static_cast<uint64_t>(i) * 7;
    snap.counters.push_back(std::move(c));
  }
  obs::GaugeSample g;
  g.name = "qf_test_gauge";
  g.value = -17;
  snap.gauges.push_back(std::move(g));
  obs::HistogramSample h;
  h.name = "qf_test_hist_ns";
  for (uint64_t v : {1ull, 90ull, 1500ull, 1500ull, 7'000'000ull}) {
    h.data.Record(v);
  }
  snap.histograms.push_back(std::move(h));
  return snap;
}

TEST(NetMetricsWireTest, RoundTripIsExact) {
  const obs::MetricsSnapshot snap = SampleSnapshot();
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(snap, &payload);

  obs::MetricsSnapshot back;
  ASSERT_TRUE(ParseMetricsPayload(payload, &back));
  EXPECT_EQ(back.wall_ns, snap.wall_ns);
  EXPECT_EQ(back.mono_ns, snap.mono_ns);
  ASSERT_EQ(back.counters.size(), snap.counters.size());
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, snap.counters[i].name);
    EXPECT_EQ(back.counters[i].value, snap.counters[i].value);
  }
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0].name, "qf_test_gauge");
  EXPECT_EQ(back.gauges[0].value, -17);
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramData& a = snap.histograms[0].data;
  const obs::HistogramData& b = back.histograms[0].data;
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.sum(), a.sum());
  EXPECT_EQ(b.max(), a.max());
  for (size_t i = 0; i < obs::HistogramLayout::kNumBuckets; ++i) {
    ASSERT_EQ(b.bucket(i), a.bucket(i)) << "bucket " << i;
  }
  // Derived statistics survive the sparse encoding.
  EXPECT_EQ(b.Quantile(0.5), a.Quantile(0.5));
  EXPECT_EQ(b.Quantile(0.999), a.Quantile(0.999));
}

TEST(NetMetricsWireTest, EveryTruncationFailsClosed) {
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(SampleSnapshot(), &payload);
  ASSERT_GT(payload.size(), 36u);
  for (size_t len = 0; len < payload.size(); ++len) {
    obs::MetricsSnapshot out;
    out.wall_ns = 0xDEAD;  // sentinel: must be untouched on failure
    EXPECT_FALSE(ParseMetricsPayload(
        std::span<const uint8_t>(payload.data(), len), &out))
        << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(out.wall_ns, 0xDEADu) << "output touched at prefix " << len;
  }
}

TEST(NetMetricsWireTest, TrailingBytesFailClosed) {
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(SampleSnapshot(), &payload);
  payload.push_back(0);
  obs::MetricsSnapshot out;
  EXPECT_FALSE(ParseMetricsPayload(payload, &out));
}

TEST(NetMetricsWireTest, HeaderCorruptionFailsClosed) {
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(SampleSnapshot(), &payload);
  obs::MetricsSnapshot out;

  auto mutated = payload;
  mutated[0] ^= 0xFF;  // magic
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));

  mutated = payload;
  mutated[4] ^= 0x01;  // version
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));

  mutated = payload;
  mutated[6] = 0x5A;  // reserved must be zero
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));
}

TEST(NetMetricsWireTest, OversizedCountsRejectedWithoutAllocating) {
  // A 36-byte header claiming 4 billion counters must be rejected by the
  // size bound, not by attempting the reservation.
  std::vector<uint8_t> payload;
  obs::MetricsSnapshot empty;
  EncodeMetricsPayloadTo(empty, &payload);
  ASSERT_EQ(payload.size(), 36u);
  std::memset(payload.data() + 24, 0xFF, 4);  // n_counters = 0xFFFFFFFF
  obs::MetricsSnapshot out;
  EXPECT_FALSE(ParseMetricsPayload(payload, &out));
}

// Offsets into a payload holding exactly one histogram (no counters or
// gauges): fixed 36-byte header, then {u16 name_len, name, u64 count,
// u64 sum, u64 max, u32 n_buckets, n x {u32 idx, u64 cnt}}.
struct HistOffsets {
  size_t name_len = 36;
  size_t n_buckets = 0;
  size_t first_idx = 0;
  size_t first_cnt = 0;
  size_t second_idx = 0;
};

std::vector<uint8_t> OneHistPayload(HistOffsets* off) {
  obs::MetricsSnapshot snap;
  obs::HistogramSample h;
  h.name = "qf_h";
  h.data.Record(3);        // bucket A
  h.data.Record(1 << 16);  // bucket B (far away — distinct index)
  snap.histograms.push_back(std::move(h));
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(snap, &payload);
  off->n_buckets = 36 + 2 + 4 + 8 + 8 + 8;
  off->first_idx = off->n_buckets + 4;
  off->first_cnt = off->first_idx + 4;
  off->second_idx = off->first_cnt + 8;
  EXPECT_EQ(payload.size(), off->second_idx + 4 + 8);
  return payload;
}

TEST(NetMetricsWireTest, CorruptBucketTableFailsClosed) {
  HistOffsets off;
  const std::vector<uint8_t> payload = OneHistPayload(&off);
  obs::MetricsSnapshot out;
  ASSERT_TRUE(ParseMetricsPayload(payload, &out));  // sanity: intact parses

  // Bucket index beyond the layout.
  auto mutated = payload;
  const uint32_t huge = obs::HistogramLayout::kNumBuckets;
  std::memcpy(mutated.data() + off.first_idx, &huge, 4);
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));

  // Non-increasing indices (second == first).
  mutated = payload;
  std::memcpy(mutated.data() + off.second_idx, mutated.data() + off.first_idx,
              4);
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));

  // A zero bucket count never appears in a sparse table.
  mutated = payload;
  std::memset(mutated.data() + off.first_cnt, 0, 8);
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));

  // Name length outside [1, kMetricsMaxNameLen].
  mutated = payload;
  std::memset(mutated.data() + off.name_len, 0, 2);
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));
  mutated = payload;
  const uint16_t too_long = kMetricsMaxNameLen + 1;
  std::memcpy(mutated.data() + off.name_len, &too_long, 2);
  EXPECT_FALSE(ParseMetricsPayload(mutated, &out));
}

// The stats projection behind CONTROL kStats and QfClient::Stats: every
// WireStats field survives WireStatsToMetrics -> QFMS -> WireStatsFromMetrics,
// and a snapshot missing any one series fails closed, naming it.
TEST(NetMetricsWireTest, WireStatsProjectionRoundTripsAndFailsClosed) {
  static_assert(sizeof(WireStats) % sizeof(uint64_t) == 0);
  uint64_t words[sizeof(WireStats) / sizeof(uint64_t)];
  for (size_t i = 0; i < std::size(words); ++i) words[i] = 1000 + i;
  WireStats in;
  std::memcpy(&in, words, sizeof(in));

  const obs::MetricsSnapshot snap = WireStatsToMetrics(in);
  ASSERT_EQ(snap.counters.size() + snap.gauges.size(), std::size(words));
  std::vector<uint8_t> payload;
  EncodeMetricsPayloadTo(snap, &payload);
  obs::MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsPayload(payload, &parsed));
  WireStats out;
  std::string error;
  ASSERT_TRUE(WireStatsFromMetrics(parsed, &out, &error)) << error;
  EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);

  const auto expect_rejected = [&](const obs::MetricsSnapshot& bad,
                                   const std::string& name) {
    WireStats untouched;
    std::string why;
    EXPECT_FALSE(WireStatsFromMetrics(bad, &untouched, &why)) << name;
    EXPECT_NE(why.find(name), std::string::npos) << why;
    EXPECT_EQ(untouched.items_ingested, 0u);
  };
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    obs::MetricsSnapshot bad = snap;
    bad.counters.erase(bad.counters.begin() + static_cast<std::ptrdiff_t>(i));
    expect_rejected(bad, snap.counters[i].name);
  }
  obs::MetricsSnapshot bad = snap;
  bad.gauges.clear();
  expect_rejected(bad, "qf_net_active_connections");
  bad = snap;
  bad.gauges[0].value = -1;
  expect_rejected(bad, "qf_net_active_connections");
}

// ---------------------------------------------------------------------------
// Live server: FetchMetrics over the socket must agree with a MetricsSink
// file snapshot of the server's Metrics() and with Stats() at the same
// fence (after Drain, with nothing else running). Families touched by
// FetchMetrics itself (qf_net frame/byte counters) are excluded — the wire
// snapshot is taken before the reply is written, so they trail by one
// control round trip.

double JsonlCounter(const obs::JsonValue& doc, const std::string& name) {
  const obs::JsonValue* counters = doc.Get("counters");
  if (counters == nullptr) return -1;
  const obs::JsonValue* v = counters->Get(name);
  return v == nullptr ? -1 : v->NumberOr(-1);
}

int64_t CounterOr(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::CounterSample* c = obs::FindSample(s.counters, name);
  return c == nullptr ? -1 : static_cast<int64_t>(c->value);
}

TEST(NetMetricsWireTest, LiveServerRoundTripMatchesSinkSnapshot) {
  QfServer::Options opts;
  opts.port = 0;
  opts.num_shards = 2;
  opts.filter.memory_bytes = 128 * 1024;
  opts.criteria = Criteria(30, 0.95, 300);
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  std::vector<Item> batch;
  for (uint64_t i = 0; i < 4096; ++i) {
    batch.push_back(Item{i % 97 + 1, 50.0 + static_cast<double>(i % 13)});
  }
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(client.Ingest(batch)) << client.error();
  }
  ASSERT_TRUE(client.Drain()) << client.error();

  obs::MetricsSnapshot wire;
  ASSERT_TRUE(client.FetchMetrics(&wire)) << client.error();

  // Same fence: the server is drained and idle, so every family EXCEPT the
  // control-path counters is stable between the wire snapshot and these.
  const obs::MetricsSnapshot local = server.Metrics();
  const std::string jsonl = TestTempPath("metrics_wire.jsonl");
  std::remove(jsonl.c_str());
  obs::MetricsSink sink([&server] { return server.Metrics(); },
                        obs::MetricsSink::Options{jsonl, "", 1000});
  ASSERT_TRUE(sink.WriteOnce());

  // The server's own series are exact and present in every build.
  const int64_t wire_items =
      CounterOr(wire, "qf_server_items_ingested_total");
  EXPECT_EQ(wire_items, 4 * 4096);
  EXPECT_EQ(CounterOr(local, "qf_server_items_ingested_total"), wire_items);
  EXPECT_EQ(CounterOr(wire, "qf_server_items_processed_total"), wire_items);
  WireStats stats;
  std::string error;
  ASSERT_TRUE(WireStatsFromMetrics(wire, &stats, &error)) << error;
  WireStats direct;
  ASSERT_TRUE(client.Stats(&direct)) << client.error();
  EXPECT_EQ(stats.items_ingested, direct.items_ingested);
  EXPECT_EQ(stats.reports, direct.reports);
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(direct.active_connections, 1u);

  std::ifstream in(jsonl);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  ASSERT_FALSE(last.empty());
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(last, &doc, &error)) << error;
  EXPECT_EQ(static_cast<int64_t>(
                JsonlCounter(doc, "qf_server_items_ingested_total")),
            wire_items);

#if QF_METRICS
  // Stage histograms (§15) made it over the wire with live totals.
  auto find_hist_count = [](const obs::MetricsSnapshot& s,
                            const std::string& name) -> int64_t {
    const obs::HistogramSample* h = obs::FindSample(s.histograms, name);
    return h == nullptr ? -1 : static_cast<int64_t>(h->data.count());
  };
  EXPECT_GT(find_hist_count(wire, "qf_stage_decode_ns"), 0);
  EXPECT_GT(find_hist_count(wire, "qf_stage_insert_ns"), 0);
  EXPECT_EQ(find_hist_count(wire, "qf_stage_insert_ns"),
            find_hist_count(local, "qf_stage_insert_ns"));
#endif

  ASSERT_TRUE(client.Shutdown()) << client.error();
  server.Stop();
  std::remove(jsonl.c_str());
}

// A pre-§15 server would answer kMetrics with kRejected/ERROR; the client
// must surface that as a failure while keeping the connection usable. The
// closest in-process stand-in: a malformed payload must not produce a
// half-filled snapshot (covered above) and a rejected control op must not
// poison the client (covered by ControlRoundTrip semantics in
// net_server_test). Here: FetchMetrics twice on one connection works.
TEST(NetMetricsWireTest, FetchMetricsTwiceOnOneConnection) {
  QfServer::Options opts;
  opts.port = 0;
  opts.num_shards = 1;
  opts.filter.memory_bytes = 64 * 1024;
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  obs::MetricsSnapshot a, b;
  ASSERT_TRUE(client.FetchMetrics(&a)) << client.error();
  ASSERT_TRUE(client.FetchMetrics(&b)) << client.error();
  EXPECT_GE(b.mono_ns, a.mono_ns);
  ASSERT_TRUE(client.Shutdown()) << client.error();
  server.Stop();
}

}  // namespace
}  // namespace qf::net
