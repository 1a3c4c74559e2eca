// QfClient wire-contract tests (DESIGN.md §11, "client write coalescing"):
// the client talks to a fake server, a raw listening socket in the test, so
// each case can see exactly which bytes reached the peer and when.
//
// Pipelined INGEST frames wait in the client's output buffer until a wait
// (an ack, a reply, an alert) or the buffer reaching kClientFlushBytes
// sends them in one go; frames that never left are dropped by Close().

#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"

namespace qf::net {
namespace {

/// A listening socket on an ephemeral loopback port.
class FakeServer {
 public:
  FakeServer() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        listen(listen_fd_, 4) != 0 ||
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
  }
  ~FakeServer() {
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  /// The next connection's fd (the caller closes it), or -1.
  int Accept() const {
    return accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

/// True if `fd` becomes readable within `timeout_ms`.
bool Readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  return poll(&pfd, 1, timeout_ms) == 1;
}

/// Reads exactly `n` bytes, waiting up to 5 s for each chunk; returns what
/// arrived before EOF or the timeout.
std::vector<uint8_t> ReadBytes(int fd, size_t n) {
  std::vector<uint8_t> got(n);
  size_t off = 0;
  while (off < n && Readable(fd, 5000)) {
    const ssize_t r = recv(fd, got.data() + off, n - off, 0);
    if (r <= 0) break;
    off += static_cast<size_t>(r);
  }
  got.resize(off);
  return got;
}

void WriteBytes(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

std::vector<Item> Items(size_t n, uint64_t salt) {
  std::vector<Item> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = Item{salt * 1000 + i, static_cast<double>(i) + 0.5};
  }
  return items;
}

/// Client tokens start at 1 and count every request.
std::vector<uint8_t> IngestFrame(uint64_t token, size_t n) {
  std::vector<uint8_t> wire;
  EncodeIngestTo(token, Items(n, token), &wire);
  return wire;
}

TEST(NetClientTest, PipelinedIngestFramesLeaveTogetherAtTheFirstAwait) {
  FakeServer server;
  ASSERT_NE(server.port(), 0);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int fd = server.Accept();
  ASSERT_GE(fd, 0);

  constexpr int kFrames = 10;
  constexpr size_t kItems = 32;
  std::vector<uint8_t> want;
  for (int i = 0; i < kFrames; ++i) {
    const std::vector<uint8_t> frame = IngestFrame(i + 1, kItems);
    want.insert(want.end(), frame.begin(), frame.end());
    ASSERT_TRUE(client.SendIngest(Items(kItems, i + 1))) << client.error();
  }
  ASSERT_LT(want.size(), kClientFlushBytes);
  EXPECT_EQ(client.ingest_in_flight(), static_cast<size_t>(kFrames));
  EXPECT_FALSE(Readable(fd, 100)) << "frames left before any wait";

  std::vector<IngestAck> acks;
  std::thread awaiter([&] {
    for (int i = 0; i < kFrames; ++i) {
      IngestAck ack;
      if (!client.AwaitIngestAck(&ack)) return;
      acks.push_back(ack);
    }
  });
  EXPECT_EQ(ReadBytes(fd, want.size()), want);
  std::vector<uint8_t> replies;
  for (int i = 0; i < kFrames; ++i) {
    EncodeIngestAckTo(i + 1, kItems, (i + 1) * kItems, &replies);
  }
  WriteBytes(fd, replies);
  awaiter.join();
  ASSERT_EQ(acks.size(), static_cast<size_t>(kFrames)) << client.error();
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(acks[i].token, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(acks[i].total_items, (i + 1) * kItems);
  }
  EXPECT_EQ(client.ingest_in_flight(), 0u);
  close(fd);
}

TEST(NetClientTest, FrameAtTheFlushThresholdLeavesWithoutAWait) {
  FakeServer server;
  ASSERT_NE(server.port(), 0);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int fd = server.Accept();
  ASSERT_GE(fd, 0);

  constexpr size_t kItems = 1024;  // 16,396 B on the wire
  const std::vector<uint8_t> want = IngestFrame(1, kItems);
  ASSERT_GE(want.size(), kClientFlushBytes);
  ASSERT_TRUE(client.SendIngest(Items(kItems, 1))) << client.error();
  EXPECT_EQ(ReadBytes(fd, want.size()), want);
  close(fd);
}

TEST(NetClientTest, CloseDropsFramesThatNeverLeft) {
  FakeServer server;
  ASSERT_NE(server.port(), 0);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int first = server.Accept();
  ASSERT_GE(first, 0);
  for (uint64_t token = 1; token <= 3; ++token) {
    ASSERT_TRUE(client.SendIngest(Items(32, token))) << client.error();
  }
  client.Close();
  EXPECT_TRUE(ReadBytes(first, 1).empty()) << "a dropped frame was sent";
  close(first);

  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int second = server.Accept();
  ASSERT_GE(second, 0);
  EXPECT_EQ(client.ingest_in_flight(), 0u);
  ASSERT_TRUE(client.SendIngest(Items(32, 4))) << client.error();
  bool acked = false;
  std::thread awaiter([&] { acked = client.AwaitIngestAck(); });
  // The new connection's first bytes are the new frame, token 4.
  const std::vector<uint8_t> want = IngestFrame(4, 32);
  EXPECT_EQ(ReadBytes(second, want.size()), want);
  std::vector<uint8_t> reply;
  EncodeIngestAckTo(4, 32, 32, &reply);
  WriteBytes(second, reply);
  awaiter.join();
  EXPECT_TRUE(acked) << client.error();
  close(second);
}

TEST(NetClientTest, AwaitAgainstAClosedPeerFails) {
  FakeServer server;
  ASSERT_NE(server.port(), 0);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int fd = server.Accept();
  ASSERT_GE(fd, 0);
  close(fd);

  ASSERT_TRUE(client.SendIngest(Items(32, 1))) << client.error();
  EXPECT_FALSE(client.AwaitIngestAck());
  EXPECT_FALSE(client.error().empty());
  EXPECT_FALSE(client.connected());
}

TEST(NetClientTest, NextAlertTimeoutHoldsWhileAFrameTrickles) {
  FakeServer server;
  ASSERT_NE(server.port(), 0);
  QfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const int fd = server.Accept();
  ASSERT_GE(fd, 0);

  const WireAlert sent{7, 42, 99.5, 1, 0};
  std::vector<uint8_t> frame;
  EncodeAlertTo(sent, &frame);  // 40 B: 1.2 s at one byte per 30 ms
  std::thread trickler([&] {
    for (const uint8_t b : frame) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      if (send(fd, &b, 1, MSG_NOSIGNAL) != 1) return;
    }
  });

  WireAlert got;
  const auto t0 = std::chrono::steady_clock::now();
  const QfClient::AlertWait first = client.NextAlert(&got, 100);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(first, QfClient::AlertWait::kTimeout);
  EXPECT_LT(waited, std::chrono::seconds(1));

  EXPECT_EQ(client.NextAlert(&got, 10'000), QfClient::AlertWait::kAlert)
      << client.error();
  trickler.join();
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.key, sent.key);
  EXPECT_EQ(got.value, sent.value);
  EXPECT_EQ(got.shard, sent.shard);
  close(fd);
}

}  // namespace
}  // namespace qf::net
