// End-to-end cluster tests (DESIGN.md §16): a coordinator fronting
// in-process qf_server backends must answer QUERY bit-identically to a
// single-process sharded filter fed the same stream, complete a live slot
// migration under concurrent load without dropping an acked item, keep the
// merged alert stream gap-free, survive a backend kill + restart via the
// reconnecting pool, and drop a backend whose alert stream skips a seq.
// Also covers the QfClient connect-timeout /
// bounded-backoff satellites the coordinator's pool depends on.

#include "cluster/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/topology.h"
#include "common/time.h"
#include "durable/storage.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/instrument.h"
#include "obs/registry.h"
#include "stream/generators.h"

namespace qf::cluster {
namespace {

constexpr int kSlots = 6;

net::QfServer::Options BackendOptions() {
  net::QfServer::Options o;
  o.port = 0;  // ephemeral
  o.num_shards = kSlots;
  o.filter.memory_bytes = 128 * 1024;
  o.criteria = Criteria(30, 0.95, 300);
  return o;
}

Trace MakeTrace(size_t items, uint64_t seed = 42) {
  ZipfTraceOptions o;
  o.num_items = items;
  o.num_keys = 10'000;
  o.seed = seed;
  return GenerateZipfTrace(o);
}

/// A coordinator plus N in-process backends, optionally durable (one
/// MemStorage per backend, so kill/restart keeps state).
struct Cluster {
  std::vector<std::unique_ptr<durable::MemStorage>> storages;
  std::vector<std::unique_ptr<net::QfServer>> backends;
  std::unique_ptr<Coordinator> coordinator;

  /// `tweak` mutates the coordinator options (coalescing cap, queue caps)
  /// before Start.
  bool Boot(int num_backends, bool durable,
            const std::function<void(CoordinatorOptions&)>& tweak = {}) {
    CoordinatorOptions copts;
    for (int b = 0; b < num_backends; ++b) {
      net::QfServer::Options o = BackendOptions();
      if (durable) {
        storages.push_back(std::make_unique<durable::MemStorage>());
        o.durable.storage = storages.back().get();
      }
      backends.push_back(std::make_unique<net::QfServer>(o));
      if (!backends.back()->Start()) return false;
      copts.backends.push_back(
          "127.0.0.1:" + std::to_string(backends.back()->port()));
    }
    copts.num_slots = kSlots;
    if (tweak) tweak(copts);
    coordinator = std::make_unique<Coordinator>(copts);
    return coordinator->Start() && WaitReady();
  }

  /// Polls kTopology until every backend reports kReady.
  bool WaitReady() {
    net::QfClient probe;
    if (!probe.Connect("127.0.0.1", coordinator->port())) return false;
    const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
    while (MonotonicNanos() < deadline) {
      net::WireTopology topo;
      if (!probe.FetchTopology(&topo)) return false;
      bool ready = !topo.backends.empty();
      for (const net::WireBackend& wb : topo.backends) {
        if (wb.state != net::BackendState::kReady) ready = false;
      }
      if (ready) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  void StopAll() {
    if (coordinator) coordinator->Stop();
    for (auto& b : backends) b->Stop();
  }

  ~Cluster() { StopAll(); }
};

/// The single-process oracle: same geometry, criteria and seeds as every
/// backend, fed the identical stream.
net::QfServer::Sharded MakeOracle() {
  const net::QfServer::Options o = BackendOptions();
  return net::QfServer::Sharded(o.filter, o.criteria, o.num_shards);
}

void ExpectAnswersMatchOracle(net::QfClient& client,
                              const net::QfServer::Sharded& oracle,
                              uint64_t num_keys) {
  std::vector<uint64_t> keys;
  std::vector<net::QueryAnswer> answers;
  for (uint64_t k = 1; k <= num_keys; ++k) keys.push_back(k);
  ASSERT_TRUE(client.Query(keys, &answers)) << client.error();
  ASSERT_EQ(answers.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i].qweight, oracle.QueryQweight(keys[i]))
        << "key " << keys[i];
    EXPECT_EQ(answers[i].is_candidate != 0, oracle.IsCandidate(keys[i]))
        << "key " << keys[i];
  }
}

/// Windowed pipelined ingest on one connection; AwaitIngestAck internally
/// asserts the coordinator acks client frames in exact send order, so this
/// doubles as the per-connection ack-order check for the coalescing plane.
bool PipelinedIngest(net::QfClient& client, const Trace& trace,
                     size_t batch, size_t window,
                     std::atomic<size_t>* sent = nullptr) {
  size_t in_flight = 0;
  for (size_t i = 0; i < trace.size(); i += batch) {
    const size_t n = std::min(batch, trace.size() - i);
    if (!client.SendIngest(std::span<const Item>(trace.data() + i, n))) {
      return false;
    }
    if (++in_flight >= window) {
      if (!client.AwaitIngestAck()) return false;
      --in_flight;
    }
    if (sent != nullptr) sent->fetch_add(n);
  }
  while (in_flight > 0) {
    if (!client.AwaitIngestAck()) return false;
    --in_flight;
  }
  return true;
}

TEST(ClusterE2eTest, ScatterGatherMatchesSingleProcessOracle) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(3, /*durable=*/false));

  const Trace trace = MakeTrace(60'000);
  net::QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.coordinator->port()))
      << client.error();
  constexpr size_t kBatch = 512;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.size() - i);
    ASSERT_TRUE(client.Ingest(std::vector<Item>(
        trace.begin() + static_cast<std::ptrdiff_t>(i),
        trace.begin() + static_cast<std::ptrdiff_t>(i + n))))
        << client.error();
  }
  ASSERT_TRUE(client.Drain()) << client.error();

  net::QfServer::Sharded oracle = MakeOracle();
  for (const Item& item : trace) oracle.Insert(item.key, item.value);
  ExpectAnswersMatchOracle(client, oracle, 2000);

  // Cluster-summed stats conserve the stream.
  net::WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, trace.size());
}

class ClusterMigrationTest : public ::testing::TestWithParam<bool> {};

TEST_P(ClusterMigrationTest, LiveMigrationUnderLoadLosesNothing) {
  const bool durable = GetParam();
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(3, durable));
  const uint16_t port = cluster.coordinator->port();

  // A subscriber watches the merged alert stream throughout.
  net::QfClient subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", port));
  ASSERT_TRUE(subscriber.Subscribe(true)) << subscriber.error();

  const Trace trace = MakeTrace(120'000, 7);
  std::atomic<bool> load_failed{false};
  std::atomic<size_t> sent{0};
  // One connection: a deterministic per-shard substream order, so the
  // oracle comparison below is exact even though a migration runs in the
  // middle of the stream.
  std::thread load([&] {
    net::QfClient client;
    if (!client.Connect("127.0.0.1", port)) {
      load_failed = true;
      return;
    }
    constexpr size_t kBatch = 256;
    for (size_t i = 0; i < trace.size(); i += kBatch) {
      const size_t n = std::min(kBatch, trace.size() - i);
      if (!client.Ingest(std::vector<Item>(
              trace.begin() + static_cast<std::ptrdiff_t>(i),
              trace.begin() + static_cast<std::ptrdiff_t>(i + n)))) {
        load_failed = true;
        return;
      }
      sent += n;
    }
  });

  // Wait for the stream to be mid-flight, then migrate slot 0 from its
  // round-robin owner (backend 0) to backend 1, live.
  while (sent.load() < trace.size() / 4 && !load_failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net::QfClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", port));
  ASSERT_TRUE(admin.Migrate(0, 1)) << admin.error();

  load.join();
  ASSERT_FALSE(load_failed.load());
  ASSERT_TRUE(admin.Drain()) << admin.error();

  // Ownership flipped and the epoch advanced.
  net::WireTopology topo;
  ASSERT_TRUE(admin.FetchTopology(&topo));
  EXPECT_EQ(topo.owner[0], 1u);
  EXPECT_GT(topo.epoch, 1u);

  // Zero acked-item loss, cluster-wide. The durable catch-up path
  // re-ingests shipped WAL records into the recipient, so the summed
  // ingest count can exceed the client's stream; conservation is
  // "everything accepted was processed", plus the bit-identity below.
  net::WireStats stats;
  ASSERT_TRUE(admin.Stats(&stats)) << admin.error();
  EXPECT_GE(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, stats.items_ingested);

  // Answers stay bit-identical to the single-process oracle: the moved
  // slot's state survived the checkpoint-ship + WAL catch-up intact.
  net::QfServer::Sharded oracle = MakeOracle();
  for (const Item& item : trace) oracle.Insert(item.key, item.value);
  ExpectAnswersMatchOracle(admin, oracle, 2000);

  // The merged alert stream the subscriber saw is gap-free: the
  // coordinator re-tags with a per-subscriber sequence starting at 0.
  uint64_t expected_seq = 0;
  net::WireAlert alert;
  while (subscriber.NextAlert(&alert, 200) ==
         net::QfClient::AlertWait::kAlert) {
    EXPECT_EQ(alert.seq, expected_seq);
    ++expected_seq;
    EXPECT_LT(alert.reserved, 3u);  // re-tag carries the backend index
  }
}

INSTANTIATE_TEST_SUITE_P(DurableAndNot, ClusterMigrationTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Durable" : "NonDurable";
                         });

TEST(ClusterE2eTest, BackendKillAndRestartReconnects) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(2, /*durable=*/true));
  const uint16_t port = cluster.coordinator->port();
  const uint16_t backend_port = cluster.backends[1]->port();

  net::QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  const Trace trace = MakeTrace(20'000);
  ASSERT_TRUE(client.Ingest(trace));
  ASSERT_TRUE(client.Drain());

  // Kill backend 1. Cluster-wide rollups now fail closed (a silent
  // partial sum would fake conservation), and ingest touching its slots
  // fails the issuing connection fast.
  cluster.backends[1]->Stop();
  net::WireStats stats;
  const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
  for (;;) {
    net::QfClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", port));
    if (!probe.Stats(&stats)) break;  // pool noticed the death
    ASSERT_LT(MonotonicNanos(), deadline) << "kStats kept succeeding";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Restart on the same port with the same (durable) storage: recovery
  // replays the WAL, the pool reconnects with backoff, and the cluster
  // serves identical answers again.
  net::QfServer::Options o = BackendOptions();
  o.port = backend_port;
  o.durable.storage = cluster.storages[1].get();
  cluster.backends[1] = std::make_unique<net::QfServer>(o);
  ASSERT_TRUE(cluster.backends[1]->Start())
      << cluster.backends[1]->error();
  ASSERT_TRUE(cluster.WaitReady());

  net::QfClient after;
  ASSERT_TRUE(after.Connect("127.0.0.1", port));
  ASSERT_TRUE(after.Drain()) << after.error();
  net::QfServer::Sharded oracle = MakeOracle();
  for (const Item& item : trace) oracle.Insert(item.key, item.value);
  ExpectAnswersMatchOracle(after, oracle, 1000);
}

TEST(ClusterCoalesceE2eTest, ConcurrentPipelinedClientsConserveInAckOrder) {
  // Four pipelined connections on the one loop: every client frame folds
  // into coalesced backend frames shared with the other connections, yet
  // each connection's acks arrive in its own send order (AwaitIngestAck
  // asserts the token FIFO) and the cluster-summed stats conserve the
  // union of all streams.
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(3, /*durable=*/false));
  const uint16_t port = cluster.coordinator->port();

  constexpr int kClients = 4;
  constexpr size_t kItemsEach = 30'000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      const Trace trace = MakeTrace(kItemsEach, 1000 + t);
      net::QfClient client;
      if (!client.Connect("127.0.0.1", port) ||
          !PipelinedIngest(client, trace, 256, 8)) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  net::QfClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", port));
  ASSERT_TRUE(admin.Drain()) << admin.error();
  net::WireStats stats;
  ASSERT_TRUE(admin.Stats(&stats)) << admin.error();
  EXPECT_EQ(stats.items_ingested, kClients * kItemsEach);
  EXPECT_EQ(stats.items_processed, stats.items_ingested);
}

TEST(ClusterCoalesceE2eTest, TwoReactorsSingleConnectionMatchesOracle) {
  // A pipelined single-connection feed (window 8, which the coalescer
  // folds into shared backend frames) must stay bit-identical to the
  // single-process filter and conserve the stream — same guarantee the CI
  // smoke checks against a mirror, in-process here. The name dates from
  // the multi-reactor coordinator; the coordinator now runs one loop.
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(3, /*durable=*/false));

  const Trace trace = MakeTrace(60'000, 11);
  net::QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.coordinator->port()))
      << client.error();
  ASSERT_TRUE(PipelinedIngest(client, trace, 512, 8)) << client.error();
  ASSERT_TRUE(client.Drain()) << client.error();

  net::QfServer::Sharded oracle = MakeOracle();
  for (const Item& item : trace) oracle.Insert(item.key, item.value);
  ExpectAnswersMatchOracle(client, oracle, 2000);

  net::WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, trace.size());
}

TEST(ClusterCoalesceE2eTest, MigrationFenceWithHeldCoalescingBuffers) {
  // Buffers are no longer held across ticks (every open buffer flushes
  // at the end of its tick), but a small byte cap (32 KiB) makes a
  // pipelined feed flush mid-append, so the fence lands while coalesced
  // frames are in flight and their acks deferred: the fence must flush
  // the donor buffer under the ack barrier, buffer fenced-slot items, and
  // replay them through the coalescer after the flip — without losing an
  // acked item or breaking oracle identity.
  Cluster cluster;
  ASSERT_TRUE(cluster.Boot(3, /*durable=*/false, [](CoordinatorOptions& o) {
    o.coalesce_max_bytes = 32u << 10;
  }));
  const uint16_t port = cluster.coordinator->port();

  const Trace trace = MakeTrace(120'000, 7);
  std::atomic<bool> load_failed{false};
  std::atomic<size_t> sent{0};
  std::thread load([&] {
    net::QfClient client;
    if (!client.Connect("127.0.0.1", port) ||
        !PipelinedIngest(client, trace, 256, 16, &sent)) {
      load_failed = true;
    }
  });

  while (sent.load() < trace.size() / 4 && !load_failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net::QfClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", port));
  ASSERT_TRUE(admin.Migrate(0, 1)) << admin.error();

  load.join();
  ASSERT_FALSE(load_failed.load());
  ASSERT_TRUE(admin.Drain()) << admin.error();

  net::WireTopology topo;
  ASSERT_TRUE(admin.FetchTopology(&topo));
  EXPECT_EQ(topo.owner[0], 1u);
  EXPECT_GT(topo.epoch, 1u);

  net::WireStats stats;
  ASSERT_TRUE(admin.Stats(&stats)) << admin.error();
  EXPECT_GE(stats.items_ingested, trace.size());
  EXPECT_EQ(stats.items_processed, stats.items_ingested);

  net::QfServer::Sharded oracle = MakeOracle();
  for (const Item& item : trace) oracle.Insert(item.key, item.value);
  ExpectAnswersMatchOracle(admin, oracle, 2000);
}

/// A loopback listening socket on an ephemeral port, or -1. `rcvbuf` > 0
/// sets SO_RCVBUF, which accepted sockets inherit.
int ListenLoopback(uint16_t* port, int rcvbuf = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 8) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

/// Plays a backend's side of the SUBSCRIBE handshake on `fd`: reads until
/// the coordinator's SUBSCRIBE arrives and echoes it, which marks the
/// backend kReady. False on EOF, a bad stream, or a read that waits more
/// than `timeout_ms`.
bool EchoSubscribe(int fd, int timeout_ms) {
  net::FrameDecoder decoder;
  uint8_t buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0 || !decoder.Append(buf, static_cast<size_t>(n))) return false;
    net::Frame frame;
    while (decoder.Next(&frame) == net::FrameDecoder::Result::kFrame) {
      net::SubscribeRequest req;
      if (frame.type != net::FrameType::kSubscribe ||
          !net::ParseSubscribe(frame.payload, &req)) {
        continue;
      }
      std::vector<uint8_t> echo;
      net::EncodeSubscribeTo(req.token, req.enable, &echo);
      return send(fd, echo.data(), echo.size(), MSG_NOSIGNAL) ==
             static_cast<ssize_t>(echo.size());
    }
  }
}

/// A backend that completes the SUBSCRIBE handshake (so the coordinator
/// marks it kReady) and then never reads again — the classic stalled
/// consumer. Tiny SO_RCVBUF keeps the kernel from hiding much data.
class StalledBackend {
 public:
  bool Start() {
    listen_fd_ = ListenLoopback(&port_, /*rcvbuf=*/4096);
    if (listen_fd_ < 0) return false;
    thread_ = std::thread([this] { Serve(); });
    return true;
  }

  uint16_t port() const { return port_; }

  void Stop() {
    stop_.store(true);
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) close(listen_fd_);
    listen_fd_ = -1;
  }

  ~StalledBackend() { Stop(); }

 private:
  void Serve() {
    std::vector<int> conns;
    while (!stop_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (poll(&p, 1, 50) <= 0) continue;
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      // Complete the handshake, then stall: keep the socket open but
      // never recv again.
      EchoSubscribe(fd, /*timeout_ms=*/1000);
      conns.push_back(fd);  // held open, never read: backpressure source
    }
    for (const int fd : conns) close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ClusterCoalesceE2eTest, SlowBackendBoundsQueuedBytesAndFailsFast) {
  // One real backend plus one that stops reading after the handshake. A
  // pipelined sender must hit the coordinator's write-queue cap for the
  // stalled backend and fail fast (ERROR + close), the per-backend queued
  // bytes must never exceed cap + one coalescing buffer, and the
  // coordinator must keep serving afterwards.
  net::QfServer::Options real_opts = BackendOptions();
  net::QfServer real_backend(real_opts);
  ASSERT_TRUE(real_backend.Start());
  StalledBackend stalled;
  ASSERT_TRUE(stalled.Start());

  constexpr size_t kQueueCap = 128u << 10;
  constexpr size_t kCoalesceCap = 64u << 10;
  CoordinatorOptions copts;
  copts.backends = {"127.0.0.1:" + std::to_string(real_backend.port()),
                    "127.0.0.1:" + std::to_string(stalled.port())};
  copts.num_slots = kSlots;
  copts.max_write_queue_bytes = kQueueCap;
  copts.coalesce_max_bytes = kCoalesceCap;
  Coordinator coordinator(copts);
  ASSERT_TRUE(coordinator.Start()) << coordinator.error();

  // Both backends reach kReady (the stalled one completes the handshake).
  {
    net::QfClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", coordinator.port()));
    const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
    bool ready = false;
    while (!ready && MonotonicNanos() < deadline) {
      net::WireTopology topo;
      ASSERT_TRUE(probe.FetchTopology(&topo));
      ready = true;
      for (const net::WireBackend& wb : topo.backends) {
        if (wb.state != net::BackendState::kReady) ready = false;
      }
      if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(ready);
  }

#if QF_METRICS
  // Sample the stalled backend's queued-bytes gauge while the load runs;
  // every sample must respect the documented bound.
  std::atomic<bool> sampling{true};
  std::atomic<int64_t> max_queued{0};
  std::thread sampler([&] {
    const std::string want =
        "qf_cluster_backend_queued_bytes{backend=\"1\"}";
    while (sampling.load()) {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      for (const obs::GaugeSample& g : snap.gauges) {
        if (g.name == want && g.value > max_queued.load()) {
          max_queued.store(g.value);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
#endif

  // Hammer without awaiting acks (awaiting would deadlock by design: the
  // first frame's stalled-backend credit never releases until the queue
  // cap trips, and the cap only trips if the sender keeps pushing). The
  // stalled backend's queue fills, the coordinator fails it, and this
  // connection dies fast — a send or the final await reports the ERROR.
  // The iteration cap keeps a regression from hanging the test.
  net::QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", coordinator.port()));
  const Trace trace = MakeTrace(2'000, 3);
  bool failed = false;
  for (int batch = 0; batch < 4000 && !failed; ++batch) {
    failed = !client.SendIngest(trace);
  }
  if (!failed) failed = !client.AwaitIngestAck();
  EXPECT_TRUE(failed) << "stalled backend never tripped the queue cap";

#if QF_METRICS
  sampling.store(false);
  sampler.join();
  // Bound: the write-queue cap plus one open coalescing buffer plus one
  // in-flight frame's slack. Unbounded growth would sail far past this.
  EXPECT_LE(max_queued.load(),
            static_cast<int64_t>(kQueueCap + 2 * kCoalesceCap));
#endif

  // The coordinator survived and still answers control traffic.
  net::QfClient after;
  ASSERT_TRUE(after.Connect("127.0.0.1", coordinator.port()));
  net::WireTopology topo;
  EXPECT_TRUE(after.FetchTopology(&topo));

  coordinator.Stop();
  real_backend.Stop();
  stalled.Stop();
}

/// True once `fd` reads EOF (or a reset) within `timeout_ms`; data read on
/// the way is discarded.
bool ReadsEofWithin(int fd, int timeout_ms) {
  const uint64_t deadline =
      MonotonicNanos() + static_cast<uint64_t>(timeout_ms) * 1'000'000ULL;
  uint8_t buf[4096];
  for (;;) {
    const uint64_t now = MonotonicNanos();
    if (now >= deadline) return false;
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000ULL) + 1) <=
        0) {
      continue;
    }
    if (recv(fd, buf, sizeof(buf), 0) <= 0) return true;
  }
}

/// Accepts one connection on `listen_fd` within `timeout_ms`, or -1.
int AcceptWithin(int listen_fd, int timeout_ms) {
  pollfd p{listen_fd, POLLIN, 0};
  if (poll(&p, 1, timeout_ms) <= 0) return -1;
  return accept(listen_fd, nullptr, nullptr);
}

TEST(ClusterE2eTest, UpstreamAlertGapFailsTheBackendClosed) {
  // A backend numbers each connection's alerts gap-free, so a skipped seq
  // is a corrupt stream. Like a mismatched INGEST_ACK, it must cost the
  // backend its link (this scripted backend reads EOF), and the pool must
  // then reconnect.
  uint16_t port = 0;
  const int listen_fd = ListenLoopback(&port);
  ASSERT_GE(listen_fd, 0);
  CoordinatorOptions copts;
  copts.backends = {"127.0.0.1:" + std::to_string(port)};
  copts.num_slots = kSlots;
  Coordinator coordinator(copts);
  ASSERT_TRUE(coordinator.Start()) << coordinator.error();

  const int link = AcceptWithin(listen_fd, 10'000);
  ASSERT_GE(link, 0) << "the coordinator never connected";
  EXPECT_TRUE(EchoSubscribe(link, 10'000));
  std::vector<uint8_t> alerts;
  for (const uint64_t seq : {0, 2}) {
    net::WireAlert alert;
    alert.seq = seq;
    alert.key = 7;
    net::EncodeAlertTo(alert, &alerts);
  }
  EXPECT_EQ(send(link, alerts.data(), alerts.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(alerts.size()));
  EXPECT_TRUE(ReadsEofWithin(link, 5'000))
      << "the link stayed up after an alert seq gap";
  close(link);

  const int again = AcceptWithin(listen_fd, 10'000);
  EXPECT_GE(again, 0) << "the coordinator never reconnected";
  coordinator.Stop();
  if (again >= 0) close(again);
  close(listen_fd);
}

TEST(ClusterClientTest, ConnectTimeoutFailsFast) {
  // An RFC 5737 TEST-NET-1 host that should answer nothing; without the
  // timeout a blackholed connect wedges for minutes in SYN retries. Some
  // sandboxes NAT or proxy this range, so if the environment answers —
  // success, or a fast refusal instead of a timeout — skip rather than
  // assert on behavior the network took away.
  net::QfClient::Options o;
  o.connect_timeout_ms = 200;
  net::QfClient client(o);
  const uint64_t t0 = MonotonicNanos();
  const bool connected = client.Connect("192.0.2.66", 9);
  const uint64_t elapsed_ns = MonotonicNanos() - t0;
  // The fail-fast contract holds regardless of outcome.
  EXPECT_LT(elapsed_ns, 5'000'000'000ULL);
  if (connected) GTEST_SKIP() << "environment answers for TEST-NET-1";
  EXPECT_FALSE(client.error().empty());
  if (client.error().find("timed out") == std::string::npos) {
    GTEST_SKIP() << "environment rejected instead of blackholing: "
                 << client.error();
  }
  // The timeout path fired; it must have taken at least the deadline.
  EXPECT_GE(elapsed_ns, 150'000'000ULL);
}

TEST(ClusterClientTest, ConnectWithRetryBoundedAttempts) {
  // Nothing listens on this freshly-bound-then-released port (small race,
  // but a stray listener would only flip the expectation, not crash).
  net::QfServer::Options so = BackendOptions();
  auto holder = std::make_unique<net::QfServer>(so);
  ASSERT_TRUE(holder->Start());
  const uint16_t dead_port = holder->port();
  holder->Stop();
  holder.reset();

  net::QfClient::Options o;
  o.connect_timeout_ms = 100;
  o.connect_attempts = 3;
  o.backoff_initial_ms = 10;
  o.backoff_max_ms = 40;
  net::QfClient client(o);
  EXPECT_FALSE(client.ConnectWithRetry("127.0.0.1", dead_port));
}

TEST(ClusterClientTest, ConnectWithRetrySucceedsOnceServerAppears) {
  // Reserve a port, release it, then bring the server up while the client
  // is mid-backoff.
  net::QfServer::Options so = BackendOptions();
  auto probe = std::make_unique<net::QfServer>(so);
  ASSERT_TRUE(probe->Start());
  const uint16_t port = probe->port();
  probe->Stop();
  probe.reset();

  std::unique_ptr<net::QfServer> late;
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    net::QfServer::Options o = BackendOptions();
    o.port = port;
    late = std::make_unique<net::QfServer>(o);
    ASSERT_TRUE(late->Start()) << late->error();
  });
  net::QfClient::Options o;
  o.connect_timeout_ms = 500;
  o.connect_attempts = 20;
  o.backoff_initial_ms = 50;
  o.backoff_max_ms = 100;
  net::QfClient client(o);
  EXPECT_TRUE(client.ConnectWithRetry("127.0.0.1", port))
      << client.error();
  starter.join();
  if (late) late->Stop();
}

}  // namespace
}  // namespace qf::cluster
