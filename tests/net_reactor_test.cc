// WriteQueue unit tests (net/reactor.h): the iovec write queue under every
// QfServer and Coordinator connection, driven over a socketpair whose small
// SO_SNDBUF forces partial sendmsg() calls.

#include "net/reactor.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace qf::net {
namespace {

/// A nonblocking writer end with a small send buffer, and its reader.
struct SocketPair {
  int writer = -1;
  int reader = -1;

  SocketPair() {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return;
    writer = fds[0];
    reader = fds[1];
    const int sndbuf = 4096;
    setsockopt(writer, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    fcntl(writer, F_SETFL, fcntl(writer, F_GETFL, 0) | O_NONBLOCK);
    fcntl(reader, F_SETFL, fcntl(reader, F_GETFL, 0) | O_NONBLOCK);
  }
  ~SocketPair() {
    if (writer >= 0) close(writer);
    if (reader >= 0) close(reader);
  }

  /// Appends everything currently readable to *out.
  void Drain(std::vector<uint8_t>* out) const {
    uint8_t buf[4096];
    ssize_t n;
    while ((n = read(reader, buf, sizeof(buf))) > 0) {
      out->insert(out->end(), buf, buf + n);
    }
  }
};

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>((i * 131 + salt) ^ (i >> 8));
  }
  return v;
}

void AppendBytes(WriteQueue* q, const std::vector<uint8_t>& bytes) {
  q->Append([&](std::vector<uint8_t>* out) {
    out->insert(out->end(), bytes.begin(), bytes.end());
  });
}

/// Flushes `q` into the pair until it drains, reading between attempts.
std::vector<uint8_t> FlushAll(WriteQueue* q, const SocketPair& sp,
                              IoStats* io) {
  std::vector<uint8_t> got;
  for (int round = 0; round < 100000; ++round) {
    const WriteQueue::FlushResult r = q->FlushTo(sp.writer, io);
    EXPECT_NE(r, WriteQueue::FlushResult::kError);
    sp.Drain(&got);
    if (r == WriteQueue::FlushResult::kDrained) break;
  }
  sp.Drain(&got);
  return got;
}

TEST(WriteQueueTest, PartialSendResumesAtTheExactByte) {
  SocketPair sp;
  ASSERT_GE(sp.writer, 0);
  WriteQueue q;
  const std::vector<uint8_t> data = Pattern(256 * 1024, 7);
  AppendBytes(&q, data);
  IoStats io;
  // The small send buffer takes only part of the queue per call.
  ASSERT_EQ(q.FlushTo(sp.writer, &io), WriteQueue::FlushResult::kBlocked);
  EXPECT_GT(q.bytes(), 0u);
  EXPECT_LT(q.bytes(), data.size());
  EXPECT_EQ(io.bytes_written + q.bytes(), data.size());
  std::vector<uint8_t> got;
  sp.Drain(&got);
  const std::vector<uint8_t> rest = FlushAll(&q, sp, &io);
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(io.bytes_written, data.size());
  EXPECT_EQ(got, data);
}

TEST(WriteQueueTest, MoreBlocksThanOneSendmsgTakes) {
  SocketPair sp;
  ASSERT_GE(sp.writer, 0);
  WriteQueue q;
  constexpr size_t kBlocks = 3 * WriteQueue::kMaxIov + 5;
  std::vector<uint8_t> expected;
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<uint8_t> block = Pattern(40, static_cast<uint8_t>(b));
    expected.insert(expected.end(), block.begin(), block.end());
    q.PushBlock(std::move(block));
  }
  EXPECT_EQ(q.bytes(), expected.size());
  IoStats io;
  EXPECT_EQ(FlushAll(&q, sp, &io), expected);
  // At most kMaxIov blocks leave per call.
  EXPECT_GE(io.write_calls, (kBlocks + WriteQueue::kMaxIov - 1) /
                                WriteQueue::kMaxIov);
}

TEST(WriteQueueTest, PushedAndAppendedBytesLeaveInOrder) {
  SocketPair sp;
  ASSERT_GE(sp.writer, 0);
  WriteQueue q;
  std::vector<uint8_t> expected;
  for (int i = 0; i < 12; ++i) {
    const std::vector<uint8_t> bytes =
        Pattern(static_cast<size_t>(100 + 997 * i), static_cast<uint8_t>(i));
    expected.insert(expected.end(), bytes.begin(), bytes.end());
    if (i % 3 == 1) {
      q.PushBlock(bytes);
    } else {
      AppendBytes(&q, bytes);
    }
  }
  // A partial flush in the middle, then more of both kinds.
  IoStats io;
  std::vector<uint8_t> got;
  q.FlushTo(sp.writer, &io);
  sp.Drain(&got);
  const std::vector<uint8_t> tail_pushed = Pattern(5000, 201);
  const std::vector<uint8_t> tail_appended = Pattern(70000, 202);
  q.PushBlock(tail_pushed);
  AppendBytes(&q, tail_appended);
  expected.insert(expected.end(), tail_pushed.begin(), tail_pushed.end());
  expected.insert(expected.end(), tail_appended.begin(), tail_appended.end());
  const std::vector<uint8_t> rest = FlushAll(&q, sp, &io);
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, expected);
}

TEST(WriteQueueTest, SparesStayBounded) {
  SocketPair sp;
  ASSERT_GE(sp.writer, 0);
  WriteQueue q;
  for (int b = 0; b < 20; ++b) {
    q.PushBlock(Pattern(1000, static_cast<uint8_t>(b)));
  }
  IoStats io;
  FlushAll(&q, sp, &io);
  EXPECT_EQ(q.spares(), WriteQueue::kMaxSpares);

  // A spare comes back cleared, capacity kept.
  std::vector<uint8_t> spare = q.TakeSpare();
  EXPECT_TRUE(spare.empty());
  EXPECT_GE(spare.capacity(), 1000u);
  EXPECT_EQ(q.spares(), WriteQueue::kMaxSpares - 1);

  // Blocks above kMaxSpareCapacity are freed, not kept.
  while (q.spares() > 0) q.TakeSpare();
  q.PushBlock(Pattern(WriteQueue::kMaxSpareCapacity + 1, 9));
  FlushAll(&q, sp, &io);
  EXPECT_EQ(q.spares(), 0u);
}

}  // namespace
}  // namespace qf::net
