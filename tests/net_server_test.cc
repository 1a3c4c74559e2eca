// QfServer lifecycle tests (DESIGN.md §11): ingest/query round trips
// against an in-process oracle, lockstep alert delivery versus a Monitor
// run, drain → checkpoint → restart → identical answers, slow-subscriber
// disconnect, and malformed-frame handling. All run under the sanitizer
// label: the server spans an event loop, shard workers and client threads,
// and must be TSan-clean.

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "common/hash.h"
#include "core/monitor.h"
#include "core/sharded_filter.h"
#include "net/client.h"
#include "obs/registry.h"
#include "common/time.h"
#include "stream/generators.h"

namespace qf::net {
namespace {

QfServer::Options ServerOptions(int num_shards) {
  QfServer::Options o;
  o.port = 0;  // ephemeral
  o.num_shards = num_shards;
  o.filter.memory_bytes = 128 * 1024;
  o.criteria = Criteria(30, 0.95, 300);
  o.alert_ring_records = 1u << 16;
  return o;
}

Trace MakeTrace(size_t items, uint64_t seed = 42) {
  ZipfTraceOptions o;
  o.num_items = items;
  o.num_keys = 10'000;
  o.seed = seed;
  return GenerateZipfTrace(o);
}

std::vector<Item> Slice(const Trace& trace, size_t begin, size_t count) {
  return std::vector<Item>(trace.begin() + static_cast<std::ptrdiff_t>(begin),
                           trace.begin() +
                               static_cast<std::ptrdiff_t>(begin + count));
}

TEST(NetServerTest, IngestDrainQueryMatchesOracle) {
  const QfServer::Options opts = ServerOptions(4);
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  const Trace trace = MakeTrace(100'000);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  constexpr size_t kBatch = 512;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(client.Ingest(Slice(trace, i, n))) << client.error();
  }
  ASSERT_TRUE(client.Drain()) << client.error();

  // Oracle: the identical sharded construction fed sequentially. The
  // pipeline's per-shard determinism makes the server's answers exact.
  QfServer::Sharded oracle(opts.filter, opts.criteria, opts.num_shards);
  for (const Item& item : trace) oracle.Insert(item.key, item.value);

  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 1000; ++k) keys.push_back(k);
  std::vector<QueryAnswer> answers;
  ASSERT_TRUE(client.Query(keys, &answers)) << client.error();
  ASSERT_EQ(answers.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i].qweight, oracle.QueryQweight(keys[i]))
        << "key " << keys[i];
    EXPECT_EQ(answers[i].is_candidate != 0, oracle.IsCandidate(keys[i]))
        << "key " << keys[i];
  }

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, trace.size());  // post-drain balance
  EXPECT_EQ(stats.active_connections, 1u);

  server.Stop();
}

TEST(NetServerTest, SubscriberReceivesEveryMonitorAlertInLockstep) {
  // One shard so the alert stream is totally ordered, no cooldown so every
  // report alerts. The shard's filter seed is derived by the sharded
  // wrapper; mirror that derivation for the in-process Monitor, making the
  // two runs bit-identical.
  QfServer::Options opts = ServerOptions(1);
  // Report threshold eps/(1-delta) = 16: hot enough for a dense alert
  // stream out of a 150k-item trace.
  opts.criteria = Criteria(4, 0.75, 16);
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  Monitor::Options mopts;
  mopts.filter = opts.filter;
  mopts.filter.seed = Mix64(opts.filter.seed + 0x9E37);
  mopts.cooldown_items = 0;
  std::vector<uint64_t> expected;
  Monitor monitor(mopts, opts.criteria,
                  [&expected](const Monitor::Alert& a) {
                    expected.push_back(a.key);
                  });

  const Trace trace = MakeTrace(150'000, /*seed=*/5);
  for (const Item& item : trace) monitor.Observe(item.key, item.value);
  ASSERT_GT(expected.size(), 100u) << "trace produced too few alerts";

  QfClient subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()))
      << subscriber.error();
  ASSERT_TRUE(subscriber.Subscribe(true)) << subscriber.error();

  QfClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", server.port()))
      << ingester.error();
  constexpr size_t kBatch = 512;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(ingester.Ingest(Slice(trace, i, n))) << ingester.error();
  }
  ASSERT_TRUE(ingester.Drain()) << ingester.error();

  std::vector<uint64_t> received;
  uint64_t next_seq = 0;
  while (received.size() < expected.size()) {
    WireAlert alert;
    const QfClient::AlertWait w = subscriber.NextAlert(&alert, 10'000);
    ASSERT_EQ(w, QfClient::AlertWait::kAlert)
        << "alert stream stalled at " << received.size() << "/"
        << expected.size() << ": " << subscriber.error();
    EXPECT_EQ(alert.seq, next_seq++) << "alert sequence gap";
    EXPECT_EQ(alert.shard, 0u);
    received.push_back(alert.key);
  }
  EXPECT_EQ(received, expected);

  // Nothing extra queued, and nothing was dropped along the way.
  WireAlert spurious;
  EXPECT_EQ(subscriber.NextAlert(&spurious, 200),
            QfClient::AlertWait::kTimeout);
  WireStats stats;
  ASSERT_TRUE(ingester.Stats(&stats)) << ingester.error();
  EXPECT_EQ(stats.alerts_dropped, 0u);
  EXPECT_EQ(stats.alerts_streamed, expected.size());

  server.Stop();
}

TEST(NetServerTest, CheckpointRestartAnswersIdentically) {
  const QfServer::Options opts = ServerOptions(4);
  const Trace trace = MakeTrace(120'000, /*seed=*/9);
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 1000; ++k) keys.push_back(k);

  std::vector<uint8_t> blob;
  std::vector<QueryAnswer> before;
  {
    QfServer server(opts);
    ASSERT_TRUE(server.Start()) << server.error();
    QfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.error();
    constexpr size_t kBatch = 512;
    for (size_t i = 0; i < trace.size(); i += kBatch) {
      const size_t n = std::min(kBatch, trace.size() - i);
      ASSERT_TRUE(client.Ingest(Slice(trace, i, n))) << client.error();
    }
    ASSERT_TRUE(client.Drain()) << client.error();
    ASSERT_TRUE(client.Checkpoint(&blob)) << client.error();
    ASSERT_FALSE(blob.empty());
    ASSERT_TRUE(client.Query(keys, &before)) << client.error();
    // Shutdown through the protocol: the server loop exits on its own.
    ASSERT_TRUE(client.Shutdown()) << client.error();
    server.Wait();
    EXPECT_FALSE(server.running());
  }

  // A fresh server with the same geometry restores the checkpoint and must
  // answer every query identically.
  QfServer server2(opts);
  ASSERT_TRUE(server2.Start()) << server2.error();
  QfClient client2;
  ASSERT_TRUE(client2.Connect("127.0.0.1", server2.port()))
      << client2.error();
  ASSERT_TRUE(client2.Restore(blob)) << client2.error();
  std::vector<QueryAnswer> after;
  ASSERT_TRUE(client2.Query(keys, &after)) << client2.error();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(after[i].qweight, before[i].qweight) << "key " << keys[i];
    EXPECT_EQ(after[i].is_candidate, before[i].is_candidate)
        << "key " << keys[i];
  }

  // The restored server keeps serving: ingest after restore works.
  ASSERT_TRUE(client2.Ingest(Slice(trace, 0, 512))) << client2.error();
  ASSERT_TRUE(client2.Drain()) << client2.error();
  server2.Stop();
}

TEST(NetServerTest, RestoreRejectsCorruptBlob) {
  QfServer server(ServerOptions(2));
  ASSERT_TRUE(server.Start()) << server.error();
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  std::vector<uint8_t> blob;
  ASSERT_TRUE(client.Checkpoint(&blob)) << client.error();
  blob[blob.size() / 2] ^= 0x40;  // CRC envelope must catch this
  EXPECT_FALSE(client.Restore(blob));
  EXPECT_TRUE(client.connected()) << "rejection must not kill the conn";
  // The connection stays usable for further requests.
  WireStats stats;
  EXPECT_TRUE(client.Stats(&stats)) << client.error();
  server.Stop();
}

TEST(NetServerTest, OversizedQueryIsRejectedAtTheCap) {
  QfServer::Options opts = ServerOptions(2);
  opts.max_query_keys = 64;
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  // One key over the cap: ERROR kBadPayload, connection closed.
  QfClient over;
  ASSERT_TRUE(over.Connect("127.0.0.1", server.port())) << over.error();
  std::vector<uint64_t> keys(65);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i + 1;
  std::vector<QueryAnswer> answers;
  EXPECT_FALSE(over.Query(keys, &answers));
  EXPECT_FALSE(over.connected());

  // Exactly at the cap still answers.
  QfClient at;
  ASSERT_TRUE(at.Connect("127.0.0.1", server.port())) << at.error();
  keys.resize(64);
  ASSERT_TRUE(at.Query(keys, &answers)) << at.error();
  EXPECT_EQ(answers.size(), keys.size());
  server.Stop();
}

TEST(NetServerTest, CheckpointLargerThanFrameCapIsRefused) {
  QfServer::Options opts = ServerOptions(2);
  opts.max_frame_bytes = 4096;  // far below the 128 KiB filter budget
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  // The blob cannot fit a frame the client's decoder would accept; the
  // server must answer kRejected rather than poison the stream.
  std::vector<uint8_t> blob;
  EXPECT_FALSE(client.Checkpoint(&blob));
  EXPECT_TRUE(blob.empty());
  EXPECT_TRUE(client.connected()) << "refusal must not kill the conn";
  WireStats stats;
  EXPECT_TRUE(client.Stats(&stats)) << client.error();
  server.Stop();
}

TEST(NetServerTest, SlowSubscriberIsDisconnectedWhileIngestContinues) {
  QfServer::Options opts = ServerOptions(2);
  opts.max_write_queue_bytes = 16 * 1024;  // tiny: easy to overflow
  // Hot criteria (report threshold eps/(1-delta) = 4): ~every fourth value
  // unit re-reports, so the alert stream dwarfs what the kernel socket
  // buffers can absorb and must blow past the server-side queue cap.
  opts.criteria = Criteria(2, 0.5, 4);
  opts.so_sndbuf = 4096;  // minimal kernel buffering on the server side
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  // Subscribes, then never reads: its (deliberately tiny) kernel buffers
  // and the server-side write queue fill until the server cuts it loose.
  QfClient::Options sleeper_opts;
  sleeper_opts.so_rcvbuf = 4096;
  QfClient sleeper(sleeper_opts);
  ASSERT_TRUE(sleeper.Connect("127.0.0.1", server.port()))
      << sleeper.error();
  ASSERT_TRUE(sleeper.Subscribe(true)) << sleeper.error();

  QfClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", server.port()))
      << ingester.error();
  const Trace trace = MakeTrace(400'000, /*seed=*/3);
  constexpr size_t kBatch = 512;
  WireStats stats{};
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(ingester.Ingest(Slice(trace, i, n))) << ingester.error();
  }
  ASSERT_TRUE(ingester.Drain()) << ingester.error();
  ASSERT_TRUE(ingester.Stats(&stats)) << ingester.error();
  // Every item was acked above — ingest never stalled — and the slow
  // subscriber is gone.
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.slow_disconnects, 1u);
  EXPECT_EQ(stats.active_connections, 1u);
  server.Stop();
}

TEST(NetServerTest, PipelinedIngestOverlapsAcks) {
  QfServer server(ServerOptions(4));
  ASSERT_TRUE(server.Start()) << server.error();
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();

  const Trace trace = MakeTrace(100'000, /*seed=*/17);
  constexpr size_t kBatch = 512;
  constexpr size_t kWindow = 8;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(client.SendIngest(Slice(trace, i, n))) << client.error();
    while (client.ingest_in_flight() >= kWindow) {
      ASSERT_TRUE(client.AwaitIngestAck()) << client.error();
    }
  }
  IngestAck last{};
  while (client.ingest_in_flight() > 0) {
    ASSERT_TRUE(client.AwaitIngestAck(&last)) << client.error();
  }
  EXPECT_EQ(last.total_items, trace.size());
  server.Stop();
}

/// A plain blocking TCP connection (no QfClient, so a test controls every
/// byte on the wire), with a receive timeout so a missing reply fails the
/// test instead of hanging it.
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads frames until `count` arrived, the peer closed, or a read timed out.
std::vector<Frame> ReadFrames(int fd, size_t count) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  uint8_t buf[4096];
  while (frames.size() < count) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0 || !decoder.Append(buf, static_cast<size_t>(n))) break;
    Frame frame;
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

/// One write() carries K INGEST frames, a QUERY, K more INGEST frames and a
/// CONTROL kStats. The server answers a whole read with one flush (and, in
/// fsync=group mode, defers the acks to the group commit), yet the replies
/// must come back in request order with matching tokens.
void ExpectRepliesInRequestOrder(const QfServer::Options& opts) {
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  constexpr int kIngest = 40;
  constexpr size_t kItems = 16;
  const Trace trace = MakeTrace(2 * kIngest * kItems, /*seed=*/8);
  const std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<uint8_t> wire;
  uint64_t token = 1;  // reply i must carry token i + 1
  for (int i = 0; i < 2 * kIngest; ++i) {
    if (i == kIngest) EncodeQueryTo(token++, keys, &wire);
    EncodeIngestTo(token++, Slice(trace, i * kItems, kItems), &wire);
  }
  EncodeControlTo(token++, ControlOp::kStats, {}, &wire);

#if QF_METRICS
  const obs::Counter& write_calls =
      obs::MetricsRegistry::Global().GetCounter("qf_net_write_calls_total");
  const uint64_t calls_before = write_calls.Value();
#endif
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  const std::vector<Frame> replies = ReadFrames(fd, token - 1);
  close(fd);
  ASSERT_EQ(replies.size(), token - 1);

  uint64_t acked = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    const Frame& f = replies[i];
    const uint64_t want = i + 1;
    if (i == kIngest) {
      ASSERT_EQ(f.type, FrameType::kQueryResult) << "reply " << i;
      QueryResult res;
      ASSERT_TRUE(ParseQueryResult(f.payload, &res));
      EXPECT_EQ(res.token, want);
      EXPECT_EQ(res.answers.size(), keys.size());
    } else if (i + 1 == replies.size()) {
      ASSERT_EQ(f.type, FrameType::kControlResult) << "reply " << i;
      ControlResult res;
      ASSERT_TRUE(ParseControlResult(f.payload, &res));
      EXPECT_EQ(res.token, want);
      EXPECT_EQ(res.status, ControlStatus::kOk);
      obs::MetricsSnapshot snap;
      ASSERT_TRUE(ParseMetricsPayload(res.payload, &snap));
      WireStats stats;
      std::string error;
      ASSERT_TRUE(WireStatsFromMetrics(snap, &stats, &error)) << error;
      EXPECT_EQ(stats.items_ingested, trace.size());
    } else {
      ASSERT_EQ(f.type, FrameType::kIngestAck) << "reply " << i;
      IngestAck ack;
      ASSERT_TRUE(ParseIngestAck(f.payload, &ack));
      EXPECT_EQ(ack.token, want);
      EXPECT_EQ(ack.count, kItems);
      acked += kItems;
      EXPECT_EQ(ack.total_items, acked) << "reply " << i;
    }
  }
  EXPECT_EQ(acked, trace.size());
  server.Stop();
#if QF_METRICS
  // Read after Stop() joined the reactor, which counts a send() only after
  // the call returns. The replies to one write leave in a few send() calls,
  // not one each.
  const uint64_t calls = write_calls.Value() - calls_before;
  EXPECT_GE(calls, 1u);
  EXPECT_LT(calls, replies.size() / 4);
#endif
}

TEST(NetServerTest, PipelinedMixedFramesAreAnsweredInRequestOrder) {
  ExpectRepliesInRequestOrder(ServerOptions(2));
}

TEST(NetServerTest, DeferredGroupCommitAcksPrecedeLaterReplies) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("qf_reply_order_wal." + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  QfServer::Options opts = ServerOptions(2);
  opts.durable.wal_dir = dir.string();
  opts.durable.fsync = durable::FsyncMode::kGroup;
  ExpectRepliesInRequestOrder(opts);
  std::filesystem::remove_all(dir);
}

/// QfClient coalesces pipelined INGEST frames (DESIGN.md §11): 24 small
/// frames leave together at the first await, so the server reads them in
/// a few recv() calls, not one each. The sends are spaced out so that a
/// client sending each frame at once would cost one read per frame.
TEST(NetServerTest, PipelinedClientFramesArriveInFewReads) {
  QfServer server(ServerOptions(2));
  ASSERT_TRUE(server.Start()) << server.error();
  constexpr int kFrames = 24;
  constexpr size_t kItems = 32;
  const Trace trace = MakeTrace(kFrames * kItems, /*seed=*/9);
#if QF_METRICS
  const obs::Counter& read_calls =
      obs::MetricsRegistry::Global().GetCounter("qf_net_read_calls_total");
  const uint64_t calls_before = read_calls.Value();
#endif
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.SendIngest(Slice(trace, i * kItems, kItems)))
        << client.error();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t acked = 0;
  for (int i = 0; i < kFrames; ++i) {
    IngestAck ack;
    ASSERT_TRUE(client.AwaitIngestAck(&ack)) << client.error();
    acked += ack.count;
  }
  EXPECT_EQ(acked, trace.size());
  client.Close();
  server.Stop();
#if QF_METRICS
  // Read after Stop() joined the reactor, which counts its recv() calls
  // (the EOF one included) when the read event is done.
  EXPECT_LT(read_calls.Value() - calls_before, 6u);
#endif
}

#if QF_METRICS
/// The reactor times 1 in 16 INGEST frames (DESIGN.md §15.2), starting with
/// its first, while every counter stays exact. 100 frames on one reactor
/// therefore add exactly ceil(100 / 16) = 7 events to each per-frame stage
/// histogram, and with group commit to the two ack-latency views too.
void ExpectIngestTimingSampled(const QfServer::Options& opts) {
  constexpr int kFrames = 100;
  constexpr uint64_t kTimed = (kFrames + 15) / 16;
  constexpr size_t kItems = 32;
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  std::vector<const char*> families = {"qf_stage_decode_ns",
                                       "qf_stage_arena_push_ns",
                                       "qf_net_ingest_frame_ns"};
  if (opts.durable.enabled() &&
      opts.durable.fsync == durable::FsyncMode::kGroup) {
    families.push_back("qf_stage_ack_ns");
    families.push_back("qf_durable_sync_latency_ns");
  }
  const auto count_of = [&](const char* name) {
    return r.GetHistogram(name).Merged().count();
  };
  std::vector<uint64_t> before;
  for (const char* f : families) before.push_back(count_of(f));
  const obs::Counter& frames =
      r.GetCounter("qf_net_frames_total{type=\"ingest\"}");
  const uint64_t frames_before = frames.Value();

  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  const Trace trace = MakeTrace(kFrames * kItems, /*seed=*/21);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.SendIngest(Slice(trace, i * kItems, kItems)))
        << client.error();
    while (client.ingest_in_flight() >= 8) {
      ASSERT_TRUE(client.AwaitIngestAck()) << client.error();
    }
  }
  while (client.ingest_in_flight() > 0) {
    ASSERT_TRUE(client.AwaitIngestAck()) << client.error();
  }
  client.Close();
  server.Stop();  // joins the reactor: every record it made is visible

  for (size_t f = 0; f < families.size(); ++f) {
    EXPECT_EQ(count_of(families[f]) - before[f], kTimed) << families[f];
  }
  EXPECT_EQ(frames.Value() - frames_before, static_cast<uint64_t>(kFrames));
  const obs::MetricsSnapshot own = server.OwnSeries();
  const obs::CounterSample* ingested =
      obs::FindSample(own.counters, "qf_server_items_ingested_total");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->value, trace.size());
}

TEST(NetServerTest, IngestStageTimingSamplesFramesAndCountsExactly) {
  ExpectIngestTimingSampled(ServerOptions(1));
}

TEST(NetServerTest, GroupCommitAckTimingSamplesTheTimedFrames) {
  durable::MemStorage storage;
  QfServer::Options opts = ServerOptions(1);
  opts.durable.storage = &storage;
  opts.durable.fsync = durable::FsyncMode::kGroup;
  ExpectIngestTimingSampled(opts);
}
#endif  // QF_METRICS

// --- Stats plane (DESIGN.md §15) -------------------------------------------
//
// Each server owns its counters (QfServer::OwnSeries): kStats answers them
// alone and kMetrics adds the process registry, so both views agree and no
// server reports another's counts.

/// The server's own counts, as kMetrics carries them.
WireStats MetricsView(QfClient& client) {
  obs::MetricsSnapshot snap;
  WireStats stats;
  std::string error;
  EXPECT_TRUE(client.FetchMetrics(&snap)) << client.error();
  EXPECT_TRUE(WireStatsFromMetrics(snap, &stats, &error)) << error;
  return stats;
}

TEST(NetServerTest, TwoServersInOneProcessReportOnlyTheirOwnCounts) {
  QfServer one(ServerOptions(1));
  QfServer two(ServerOptions(2));
  ASSERT_TRUE(one.Start()) << one.error();
  ASSERT_TRUE(two.Start()) << two.error();
  const Trace trace = MakeTrace(4'000, /*seed=*/5);

  // One connection and 1000 items into `one`; three connections and 3000
  // items into `two`. A single reactor accepts in connect order, so once
  // the last connection is answered, every earlier one was accepted.
  std::vector<std::unique_ptr<QfClient>> clients;
  const auto connect = [&](QfServer& server, int n) {
    for (int i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<QfClient>());
      ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()))
          << clients.back()->error();
    }
  };
  connect(one, 1);
  QfClient& a = *clients.back();
  ASSERT_TRUE(a.Ingest(Slice(trace, 0, 1000))) << a.error();
  connect(two, 3);
  QfClient& b = *clients.back();
  ASSERT_TRUE(b.Ingest(Slice(trace, 1000, 3000))) << b.error();
  ASSERT_TRUE(a.Drain()) << a.error();
  ASSERT_TRUE(b.Drain()) << b.error();

  const auto expect_own = [](QfClient& c, QfServer& server,
                             uint64_t accepts, uint64_t items) {
    WireStats stats;
    ASSERT_TRUE(c.Stats(&stats)) << c.error();
    const WireStats metrics = MetricsView(c);
    const WireStats local = server.StatsSnapshot();
    for (const WireStats& v : {stats, metrics, local}) {
      EXPECT_EQ(v.accepts, accepts);
      EXPECT_EQ(v.active_connections, accepts);
      EXPECT_EQ(v.items_ingested, items);
      EXPECT_EQ(v.items_processed, items);
    }
  };
  expect_own(a, one, 1, 1000);
  expect_own(b, two, 3, 3000);
  clients.clear();
  one.Stop();
  two.Stop();
}

TEST(NetServerTest, StopCountsOpenConnectionsAsDisconnects) {
  QfServer server(ServerOptions(1));
  ASSERT_TRUE(server.Start()) << server.error();
  QfClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port())) << a.error();
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port())) << b.error();
  WireStats stats;
  ASSERT_TRUE(b.Stats(&stats)) << b.error();
  ASSERT_EQ(stats.accepts, 2u);
  ASSERT_EQ(stats.active_connections, 2u);

  server.Stop();  // both clients are still connected
  const obs::MetricsSnapshot own = server.OwnSeries();
  const obs::GaugeSample* active =
      obs::FindSample(own.gauges, "qf_net_active_connections");
  const obs::CounterSample* accepts =
      obs::FindSample(own.counters, "qf_net_accepts_total");
  const obs::CounterSample* disconnects =
      obs::FindSample(own.counters, "qf_net_disconnects_total");
  ASSERT_NE(active, nullptr);
  ASSERT_NE(accepts, nullptr);
  ASSERT_NE(disconnects, nullptr);
  EXPECT_EQ(active->value, 0);
  EXPECT_EQ(accepts->value, 2u);
  EXPECT_EQ(disconnects->value, accepts->value);
}

// Stats polls (over the wire and in-process) race WAL segment rotation on
// the reactors; the segment count is read under the WAL lock (TSan-clean),
// and only ever grows.
TEST(NetServerTest, StatsPollsRaceWalSegmentRotation) {
  durable::MemStorage storage;
  QfServer::Options opts = ServerOptions(2);
  opts.reactors = 2;
  opts.durable.storage = &storage;
  opts.durable.fsync = durable::FsyncMode::kNone;
  opts.durable.segment_bytes = 1024;
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  const Trace trace = MakeTrace(40'000, /*seed=*/17);

  QfClient poller;
  ASSERT_TRUE(poller.Connect("127.0.0.1", server.port())) << poller.error();
  std::atomic<bool> done{false};
  std::thread ingester([&] {
    QfClient in;
    EXPECT_TRUE(in.Connect("127.0.0.1", server.port())) << in.error();
    constexpr size_t kBatch = 64;  // ~1 KB records: a rotation every few
    for (size_t i = 0; i < trace.size(); i += kBatch) {
      if (!in.Ingest(Slice(trace, i, kBatch))) {
        ADD_FAILURE() << in.error();
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t last = 0;
  do {
    WireStats stats;
    if (!poller.Stats(&stats)) {
      ADD_FAILURE() << poller.error();
      break;
    }
    const WireStats local = server.StatsSnapshot();
    EXPECT_GE(stats.wal_segments_written, last);
    EXPECT_GE(local.wal_segments_written, stats.wal_segments_written);
    last = local.wal_segments_written;
  } while (!done.load(std::memory_order_acquire));
  ingester.join();
  ASSERT_TRUE(poller.Drain()) << poller.error();
  WireStats stats;
  ASSERT_TRUE(poller.Stats(&stats)) << poller.error();
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.wal_records_appended, trace.size() / 64);
  EXPECT_GT(stats.wal_segments_written, 10u);
  EXPECT_EQ(MetricsView(poller).wal_segments_written,
            stats.wal_segments_written);
  server.Stop();
}

// --- Multi-reactor (SO_REUSEPORT) coverage --------------------------------
//
// With --reactors=R the kernel spreads connections over R event loops, each
// its own pipeline producer. A single ingest connection still lands on ONE
// reactor, so its per-shard item order is the trace order and the
// sequential oracle stays exact even with R > 1. Concurrent connections
// interleave per shard nondeterministically; those tests assert
// conservation (nothing lost, nothing doubled) and checkpoint/restore
// identity instead.

TEST(NetServerTest, MultiReactorSingleConnectionMatchesOracle) {
  QfServer::Options opts = ServerOptions(4);
  opts.reactors = 4;
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();
  EXPECT_EQ(server.reactors(), 4);

  const Trace trace = MakeTrace(100'000, /*seed=*/21);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  constexpr size_t kBatch = 512;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(client.Ingest(Slice(trace, i, n))) << client.error();
  }
  ASSERT_TRUE(client.Drain()) << client.error();

  QfServer::Sharded oracle(opts.filter, opts.criteria, opts.num_shards);
  for (const Item& item : trace) oracle.Insert(item.key, item.value);

  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 1000; ++k) keys.push_back(k);
  std::vector<QueryAnswer> answers;
  ASSERT_TRUE(client.Query(keys, &answers)) << client.error();
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i].qweight, oracle.QueryQweight(keys[i]))
        << "key " << keys[i];
    EXPECT_EQ(answers[i].is_candidate != 0, oracle.IsCandidate(keys[i]))
        << "key " << keys[i];
  }
  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, trace.size());
  server.Stop();
}

TEST(NetServerTest, MultiReactorConcurrentIngestQuiesceAndCheckpoint) {
  QfServer::Options opts = ServerOptions(4);
  opts.reactors = 4;
  const Trace trace = MakeTrace(160'000, /*seed=*/33);
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 1000; ++k) keys.push_back(k);

  std::vector<uint8_t> blob;
  std::vector<QueryAnswer> before;
  {
    QfServer server(opts);
    ASSERT_TRUE(server.Start()) << server.error();

    // Four connections ingest disjoint slices concurrently (each lands on
    // some reactor via REUSEPORT hashing) while a fifth hammers kDrain —
    // global quiesces race live ingest and each other, exercising the
    // coordinator claim loop from whatever reactors the kernel picked.
    constexpr int kClients = 4;
    const size_t slice = trace.size() / kClients;
    std::atomic<bool> ingest_done{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        QfClient in;
        ASSERT_TRUE(in.Connect("127.0.0.1", server.port())) << in.error();
        const size_t begin = static_cast<size_t>(c) * slice;
        constexpr size_t kBatch = 512;
        for (size_t i = 0; i < slice; i += kBatch) {
          const size_t n = std::min(kBatch, slice - i);
          ASSERT_TRUE(in.Ingest(Slice(trace, begin + i, n))) << in.error();
        }
      });
    }
    std::thread drainer([&] {
      QfClient ctl;
      ASSERT_TRUE(ctl.Connect("127.0.0.1", server.port())) << ctl.error();
      while (!ingest_done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(ctl.Drain()) << ctl.error();
      }
    });
    for (std::thread& t : threads) t.join();
    ingest_done.store(true, std::memory_order_release);
    drainer.join();

    QfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.error();
    ASSERT_TRUE(client.Drain()) << client.error();
    WireStats stats;
    ASSERT_TRUE(client.Stats(&stats)) << client.error();
    // Conservation across producers: every acked item reached a shard.
    EXPECT_EQ(stats.items_ingested, slice * kClients);
    EXPECT_EQ(stats.items_processed, slice * kClients);

    ASSERT_TRUE(client.Checkpoint(&blob)) << client.error();
    ASSERT_FALSE(blob.empty());
    ASSERT_TRUE(client.Query(keys, &before)) << client.error();
    // Protocol shutdown with 4 reactors: the acking reactor drains its
    // ack, the others exit on their wakeups, the last one out stops the
    // pipeline.
    ASSERT_TRUE(client.Shutdown()) << client.error();
    server.Wait();
    EXPECT_FALSE(server.running());
  }

  // The checkpoint is reactor-count-agnostic: restore into a single-loop
  // server and every answer must be bit-identical.
  QfServer::Options opts2 = ServerOptions(4);
  opts2.reactors = 1;
  QfServer server2(opts2);
  ASSERT_TRUE(server2.Start()) << server2.error();
  QfClient client2;
  ASSERT_TRUE(client2.Connect("127.0.0.1", server2.port()))
      << client2.error();
  ASSERT_TRUE(client2.Restore(blob)) << client2.error();
  std::vector<QueryAnswer> after;
  ASSERT_TRUE(client2.Query(keys, &after)) << client2.error();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(after[i].qweight, before[i].qweight) << "key " << keys[i];
    EXPECT_EQ(after[i].is_candidate, before[i].is_candidate)
        << "key " << keys[i];
  }
  server2.Stop();
}

TEST(NetServerTest, MultiReactorSubscribersGetLockstepAlertsViaMailboxes) {
  // One shard + one ingest connection keeps the alert stream totally
  // ordered even with two reactors; two subscribers make it likely at
  // least one sits on a non-zero reactor, so delivery runs through the
  // mailbox forwarding path as well as the local one. Every subscriber
  // must see the full Monitor sequence, gap-free, wherever it landed.
  QfServer::Options opts = ServerOptions(1);
  opts.reactors = 2;
  opts.criteria = Criteria(4, 0.75, 16);
  // The gap-free assertion below is only scheduling-independent if the
  // alert ring can never overflow: size it above the whole trace's alert
  // volume (~12k) so a starved reactor 0 delays delivery but never drops.
  opts.alert_ring_records = 32768;
  QfServer server(opts);
  ASSERT_TRUE(server.Start()) << server.error();

  Monitor::Options mopts;
  mopts.filter = opts.filter;
  mopts.filter.seed = Mix64(opts.filter.seed + 0x9E37);
  mopts.cooldown_items = 0;
  std::vector<uint64_t> expected;
  Monitor monitor(mopts, opts.criteria,
                  [&expected](const Monitor::Alert& a) {
                    expected.push_back(a.key);
                  });
  const Trace trace = MakeTrace(120'000, /*seed=*/11);
  for (const Item& item : trace) monitor.Observe(item.key, item.value);
  ASSERT_GT(expected.size(), 100u) << "trace produced too few alerts";

  constexpr int kSubscribers = 2;
  std::vector<std::unique_ptr<QfClient>> subs;
  for (int s = 0; s < kSubscribers; ++s) {
    subs.push_back(std::make_unique<QfClient>());
    ASSERT_TRUE(subs.back()->Connect("127.0.0.1", server.port()))
        << subs.back()->error();
    ASSERT_TRUE(subs.back()->Subscribe(true)) << subs.back()->error();
  }

  QfClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", server.port()))
      << ingester.error();
  constexpr size_t kBatch = 512;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(ingester.Ingest(Slice(trace, i, n))) << ingester.error();
  }
  ASSERT_TRUE(ingester.Drain()) << ingester.error();

  for (int s = 0; s < kSubscribers; ++s) {
    std::vector<uint64_t> received;
    uint64_t next_seq = 0;
    while (received.size() < expected.size()) {
      WireAlert alert;
      const QfClient::AlertWait w = subs[s]->NextAlert(&alert, 10'000);
      ASSERT_EQ(w, QfClient::AlertWait::kAlert)
          << "subscriber " << s << " stalled at " << received.size() << "/"
          << expected.size() << ": " << subs[s]->error();
      EXPECT_EQ(alert.seq, next_seq++) << "alert sequence gap";
      received.push_back(alert.key);
    }
    EXPECT_EQ(received, expected) << "subscriber " << s;
  }
  WireStats stats;
  ASSERT_TRUE(ingester.Stats(&stats)) << ingester.error();
  EXPECT_EQ(stats.alerts_dropped, 0u);
  server.Stop();
}

// --- Client-plane contract, against both front ends -----------------------
//
// QfServer and the cluster Coordinator share one event loop, connection
// type and client table (net/reactor.h), so they owe clients the same
// contract: malformed bytes get one ERROR frame then EOF, a client that
// never reads is cut loose without stalling others, kStats and kMetrics
// count the front end's own clients, a connection past the per-loop cap
// is closed, running out of fds refuses excess clients instead of
// spinning, and a kShutdown is acked before the front end stops. The
// Coordinator fronts one in-process backend.

enum class FrontEnd { kQfServer, kCoordinator };

const char* FrontEndName(FrontEnd f) {
  return f == FrontEnd::kQfServer ? "QfServer" : "Coordinator";
}
void PrintTo(FrontEnd f, std::ostream* os) { *os << FrontEndName(f); }

class ClientPlaneTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  /// Boots the front end under test with `opts`. The Coordinator takes its
  /// max_write_queue_bytes and fronts a default backend with the same
  /// shard count; so_sndbuf is a QfServer-only setting.
  void Boot(const QfServer::Options& opts) {
    if (GetParam() == FrontEnd::kQfServer) {
      server_ = std::make_unique<QfServer>(opts);
      ASSERT_TRUE(server_->Start()) << server_->error();
      port_ = server_->port();
      return;
    }
    server_ = std::make_unique<QfServer>(ServerOptions(opts.num_shards));
    ASSERT_TRUE(server_->Start()) << server_->error();
    cluster::CoordinatorOptions copts;
    copts.backends = {"127.0.0.1:" + std::to_string(server_->port())};
    copts.num_slots = static_cast<uint32_t>(opts.num_shards);
    copts.max_write_queue_bytes = opts.max_write_queue_bytes;
    coordinator_ = std::make_unique<cluster::Coordinator>(copts);
    ASSERT_TRUE(coordinator_->Start()) << coordinator_->error();
    port_ = coordinator_->port();
    // Drive load only once the backend link is up.
    QfClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", port_)) << probe.error();
    const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
    WireTopology topo;
    while (MonotonicNanos() < deadline) {
      ASSERT_TRUE(probe.FetchTopology(&topo)) << probe.error();
      if (topo.backends.size() == 1 &&
          topo.backends[0].state == BackendState::kReady) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "backend never became ready";
  }

  void TearDown() override {
    if (coordinator_) coordinator_->Stop();
    if (server_) server_->Stop();
  }

  uint16_t port_ = 0;
  std::unique_ptr<QfServer> server_;  // the front end, or its backend
  std::unique_ptr<cluster::Coordinator> coordinator_;
};

INSTANTIATE_TEST_SUITE_P(NetServer, ClientPlaneTest,
                         ::testing::Values(FrontEnd::kQfServer,
                                           FrontEnd::kCoordinator),
                         [](const ::testing::TestParamInfo<FrontEnd>& info) {
                           return std::string(FrontEndName(info.param));
                         });

TEST_P(ClientPlaneTest, MalformedBytesGetErrorFrameThenClose) {
  Boot(ServerOptions(1));
  const int fd = RawConnect(port_);
  ASSERT_GE(fd, 0);
  const uint8_t garbage[] = {0xff, 0xff, 0xff, 0xff, 0xde, 0xad,
                             0xbe, 0xef, 0x00, 0x11, 0x22, 0x33};
  ASSERT_EQ(send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));

  // Expect one well-formed ERROR frame, then EOF.
  FrameDecoder decoder;
  Frame frame;
  bool got_error = false;
  bool got_eof = false;
  uint8_t buf[4096];
  for (int rounds = 0; rounds < 100 && !got_eof; ++rounds) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(decoder.Append(buf, static_cast<size_t>(n)));
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      ASSERT_EQ(frame.type, FrameType::kError);
      ErrorFrame err;
      ASSERT_TRUE(ParseError(frame.payload, &err));
      EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);
  close(fd);
}

TEST_P(ClientPlaneTest, IngestClientThatNeverReadsAcksIsDisconnected) {
  QfServer::Options opts = ServerOptions(1);
  opts.max_write_queue_bytes = 16 * 1024;
  opts.so_sndbuf = 4096;  // minimal kernel buffering on the server side
  Boot(opts);

  // Pipelines one-item INGEST frames and never reads an ack: every 44 bytes
  // it sends leave 28 bytes of acks owed, which its (deliberately tiny)
  // receive buffer and the server's queue cannot hold for long.
  QfClient::Options sleeper_opts;
  sleeper_opts.so_rcvbuf = 4096;
  QfClient sleeper(sleeper_opts);
  ASSERT_TRUE(sleeper.Connect("127.0.0.1", port_)) << sleeper.error();
  QfClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", port_)) << ingester.error();

  const Trace trace = MakeTrace(100'000, /*seed=*/13);
  constexpr size_t kBatch = 512;
  size_t ingested = 0;
  const auto ingest_batch = [&] {
    const size_t begin = ingested % (trace.size() - kBatch);
    ASSERT_TRUE(ingester.Ingest(Slice(trace, begin, kBatch)))
        << ingester.error();
    ingested += kBatch;
  };
  // The sleeper's sends start failing once the server has cut it loose;
  // the ingester on the same reactor keeps getting acks throughout. The
  // bound is generous because the Coordinator has no so_sndbuf: its kernel
  // send buffer autotunes up to tcp_wmem's max before the queue fills.
  for (size_t i = 0; i < 1'000'000; ++i) {
    if (!sleeper.SendIngest(Slice(trace, i % trace.size(), 1))) break;
    if (i % 256 == 0) ingest_batch();
  }
  WireStats stats;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(ingester.Stats(&stats)) << ingester.error();
    if (stats.slow_disconnects != 0) break;
    ingest_batch();
  }
  for (int i = 0; i < 8; ++i) ingest_batch();
  ASSERT_TRUE(ingester.Drain()) << ingester.error();
  ASSERT_TRUE(ingester.Stats(&stats)) << ingester.error();
  EXPECT_EQ(stats.slow_disconnects, 1u);
  EXPECT_EQ(stats.active_connections, 1u);
  EXPECT_GT(stats.items_ingested, ingested);  // plus the sleeper's items
  EXPECT_EQ(stats.items_ingested, stats.items_processed);
  // kMetrics carries the same front-end counts. The QfServer's snapshot is
  // read in process (Metrics() is what kMetrics encodes): the reply holds
  // the whole process registry, tens of KB once many tests share the
  // process, and this server rightly cuts any reader whose reply overruns
  // its 16 KB cap and 4 KB send buffer. The Coordinator's client plane
  // keeps autotuned kernel buffers, so its reply goes over the wire.
  WireStats metrics;
  if (GetParam() == FrontEnd::kQfServer) {
    std::string error;
    ASSERT_TRUE(WireStatsFromMetrics(server_->Metrics(), &metrics, &error))
        << error;
  } else {
    metrics = MetricsView(ingester);
  }
  EXPECT_EQ(metrics.slow_disconnects, 1u);
  EXPECT_EQ(metrics.active_connections, 1u);
  EXPECT_EQ(metrics.items_ingested, stats.items_ingested);
}

// kStats and kMetrics describe the front end's own client plane: a
// Coordinator's counts are its clients, not the backend's connections
// (which include the coordinator's own links).
TEST_P(ClientPlaneTest, StatsAndMetricsCountTheFrontEndsClients) {
  Boot(ServerOptions(1));
  QfClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", port_)) << a.error();
  WireStats stats;
  const auto settle = [&](uint64_t active) {
    const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
    do {
      ASSERT_TRUE(a.Stats(&stats)) << a.error();
      if (stats.active_connections == active &&
          stats.disconnects + active == stats.accepts) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } while (MonotonicNanos() < deadline);
    FAIL() << "active connections never settled at " << active;
  };
  settle(1);  // Boot's readiness probe has closed
  const uint64_t accepts = stats.accepts;
  {
    QfClient b;
    ASSERT_TRUE(b.Connect("127.0.0.1", port_)) << b.error();
    ASSERT_TRUE(b.Stats(&stats)) << b.error();
    EXPECT_EQ(stats.accepts, accepts + 1);
    EXPECT_EQ(stats.active_connections, 2u);
  }
  settle(1);
  const WireStats metrics = MetricsView(a);
  for (const WireStats& v : {stats, metrics}) {
    EXPECT_EQ(v.accepts, accepts + 1);
    EXPECT_EQ(v.disconnects, accepts);
    EXPECT_EQ(v.active_connections, 1u);
    EXPECT_EQ(v.slow_disconnects, 0u);
  }
}

/// Raises the soft RLIMIT_NOFILE to at least `needed` (within the hard
/// limit) and restores it on destruction.
class FdLimit {
 public:
  explicit FdLimit(rlim_t needed) {
    if (getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    if (saved_.rlim_cur >= needed) {
      ok_ = true;
      return;
    }
    rlimit raised = saved_;
    raised.rlim_cur = std::min(needed, saved_.rlim_max);
    raised_ = setrlimit(RLIMIT_NOFILE, &raised) == 0;
    ok_ = raised_ && raised.rlim_cur >= needed;
  }
  ~FdLimit() {
    if (raised_) setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool raised_ = false;
  bool ok_ = false;
};

// Each loop serves at most ClientTable::kMaxClients clients; a connection
// past the cap reads EOF at once, and the clients already accepted are
// still served.
TEST_P(ClientPlaneTest, ConnectionsPastTheCapAreClosed) {
  constexpr size_t kCap = ClientTable<>::kMaxClients;
  // Both ends of every connection live in this process.
  const FdLimit limit(3 * kCap + 256);
  if (!limit.ok()) GTEST_SKIP() << "RLIMIT_NOFILE too low for this test";
  Boot(ServerOptions(1));
  QfClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", port_)) << a.error();
  WireStats stats;
  const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
  do {  // until Boot's readiness probe has closed
    ASSERT_TRUE(a.Stats(&stats)) << a.error();
  } while (stats.active_connections != 1 && MonotonicNanos() < deadline);
  ASSERT_EQ(stats.active_connections, 1u);

  std::vector<int> fds;
  for (size_t i = 0; i + 1 < kCap; ++i) {
    const int fd = RawConnect(port_);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  // Accepted in connect order, so the front end is full when this arrives.
  const int excess = RawConnect(port_);
  ASSERT_GE(excess, 0);
  uint8_t byte = 0;
  EXPECT_EQ(recv(excess, &byte, 1, 0), 0) << "connection past the cap";
  close(excess);

  ASSERT_TRUE(a.Stats(&stats)) << a.error();
  EXPECT_EQ(stats.active_connections, kCap);
  EXPECT_EQ(stats.accepts, stats.disconnects + kCap);
  for (const int fd : fds) close(fd);
}

// The kShutdown ack drains before the front end stops: the client reads
// the kOk CONTROL_RESULT, then EOF, and running() turns false.
TEST_P(ClientPlaneTest, ShutdownIsAckedBeforeTheFrontEndStops) {
  Boot(ServerOptions(1));
  const int fd = RawConnect(port_);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> wire;
  EncodeControlTo(7, ControlOp::kShutdown, {}, &wire);
  ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  Frame frame;
  std::vector<Frame> frames;
  bool got_eof = false;
  uint8_t buf[4096];
  for (int rounds = 0; rounds < 100 && !got_eof; ++rounds) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(decoder.Append(buf, static_cast<size_t>(n)));
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  close(fd);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kControlResult);
  ControlResult res;
  ASSERT_TRUE(ParseControlResult(frames[0].payload, &res));
  EXPECT_EQ(res.token, 7u);
  EXPECT_EQ(res.op, ControlOp::kShutdown);
  EXPECT_EQ(res.status, ControlStatus::kOk);
  EXPECT_TRUE(got_eof);

  const auto running = [&] {
    return GetParam() == FrontEnd::kQfServer ? server_->running()
                                             : coordinator_->running();
  };
  const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
  while (running() && MonotonicNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(running());
}

/// Lowers the soft RLIMIT_NOFILE to the highest fd in use and fills every
/// free slot below it, so the process's next fd fails with EMFILE. The
/// destructor restores both: sanitizer_concurrency runs every NetServer*
/// test in one process.
class FdExhaustion {
 public:
  FdExhaustion() {
    if (getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    int highest = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      highest = std::max(highest, std::stoi(entry.path().filename()));
    }
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(highest) + 1;
    if (setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    lowered_ = true;
    for (int fd; (fd = open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
      fillers_.push_back(fd);
    }
    exhausted_ = errno == EMFILE;
  }
  ~FdExhaustion() {
    for (const int fd : fillers_) close(fd);
    if (lowered_) setrlimit(RLIMIT_NOFILE, &saved_);
  }
  bool ok() const { return exhausted_; }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  bool exhausted_ = false;
  std::vector<int> fillers_;
};

TEST_P(ClientPlaneTest, ExcessClientsAreRefusedWhenOutOfFds) {
  Boot(ServerOptions(1));
  QfClient accepted;
  ASSERT_TRUE(accepted.Connect("127.0.0.1", port_)) << accepted.error();
  const std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<QueryAnswer> answers;
  ASSERT_TRUE(accepted.Query(keys, &answers)) << accepted.error();

  // The excess clients' sockets exist before the limit drops; connect()
  // needs no new fd in this process, but the front end's accept() does.
  constexpr int kExcess = 3;
  std::vector<int> excess;
  for (int i = 0; i < kExcess; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = 1;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    excess.push_back(fd);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  {
    FdExhaustion exhausted;
    ASSERT_TRUE(exhausted.ok());
    for (const int fd : excess) {
      ASSERT_EQ(
          connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    }
    // Refused, not left pending: each excess client reads EOF within 1 s.
    for (const int fd : excess) {
      uint8_t byte = 0;
      EXPECT_EQ(recv(fd, &byte, 1, 0), 0)
          << "excess client was neither accepted nor refused";
    }
    // The already-accepted client is still served.
    ASSERT_TRUE(accepted.Query(keys, &answers)) << accepted.error();
    EXPECT_EQ(answers.size(), keys.size());
  }
  for (const int fd : excess) close(fd);
}

}  // namespace
}  // namespace qf::net
