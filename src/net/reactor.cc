#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <utility>

namespace qf::net {

namespace {

uint64_t EventToken(int fd, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | static_cast<uint32_t>(fd);
}

int OpenReserve() { return open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

void WriteQueue::PushBlock(std::vector<uint8_t> block) {
  if (block.empty()) return;
  bytes_ += block.size();
  blocks_.push_back(std::move(block));
}

std::vector<uint8_t> WriteQueue::TakeSpare() {
  if (spares_.empty()) return {};
  std::vector<uint8_t> v = std::move(spares_.back());
  spares_.pop_back();
  v.clear();
  return v;
}

WriteQueue::FlushResult WriteQueue::FlushTo(int fd, IoStats* io) {
  while (bytes_ > 0) {
    iovec iov[kMaxIov];
    size_t n_iov = 0;
    size_t off = head_off_;
    for (const std::vector<uint8_t>& b : blocks_) {
      if (n_iov == kMaxIov) break;
      iov[n_iov].iov_base = const_cast<uint8_t*>(b.data()) + off;
      iov[n_iov].iov_len = b.size() - off;
      ++n_iov;
      off = 0;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = n_iov;
    const ssize_t n = sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (io != nullptr) ++io->write_calls;
    if (n > 0) {
      if (io != nullptr) io->bytes_written += static_cast<uint64_t>(n);
      Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return FlushResult::kBlocked;
    }
    if (n < 0 && errno == EINTR) continue;
    return FlushResult::kError;
  }
  return FlushResult::kDrained;
}

std::vector<uint8_t>& WriteQueue::TailBlock() {
  if (blocks_.empty() || blocks_.back().size() >= kTailSoftCapBytes) {
    blocks_.push_back(TakeSpare());
  }
  return blocks_.back();
}

void WriteQueue::Consume(size_t n) {
  bytes_ -= n;
  while (n > 0) {
    std::vector<uint8_t>& f = blocks_.front();
    const size_t avail = f.size() - head_off_;
    if (n < avail) {
      head_off_ += n;
      return;
    }
    n -= avail;
    head_off_ = 0;
    if (spares_.size() < kMaxSpares && f.capacity() <= kMaxSpareCapacity) {
      spares_.push_back(std::move(f));
    }
    blocks_.pop_front();
  }
}

bool EventLoop::Open(const std::string& host, uint16_t port, bool reuseport,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    *error = what + ": " + strerror(errno);
    Close();
    return false;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host: " + host;
    return false;
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  reserve_fd_ = OpenReserve();
  if (epoll_fd_ < 0 || wake_fd_ < 0 || reserve_fd_ < 0) {
    return fail("epoll/eventfd");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport && setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one,
                              sizeof(one)) != 0) {
    return fail("SO_REUSEPORT");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (listen(listen_fd_, 128) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  // The listen and wake fds keep generation 0: they are never reused while
  // the loop runs, and no connection is ever registered under 0.
  for (const int fd : {listen_fd_, wake_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = EventToken(fd, 0);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return fail("epoll_ctl");
    }
  }
  return true;
}

void EventLoop::Close() {
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_, &reserve_fd_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
}

uint32_t EventLoop::Add(int fd, uint32_t events) {
  if (++next_gen_ == 0) ++next_gen_;  // 0 is the listen/wake generation
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = EventToken(fd, next_gen_);
  return epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0 ? next_gen_ : 0;
}

void EventLoop::Modify(int fd, uint32_t gen, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = EventToken(fd, gen);
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;  // allocates only if posted
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::DrainWake() {
  uint64_t drain;
  while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
  }
}

int EventLoop::AcceptOne() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if ((errno != EMFILE && errno != ENFILE) || reserve_fd_ < 0) return -1;
    // Out of fds: the pending connection would keep the level-triggered
    // listen fd readable and the loop spinning. Spend the reserve fd to
    // take it off the backlog and close it — the client reads EOF.
    close(reserve_fd_);
    const int refused = accept(listen_fd_, nullptr, nullptr);
    if (refused >= 0) close(refused);
    reserve_fd_ = OpenReserve();
    if (refused < 0) return -1;
  }
}

void ClientPlane::Fill(WireStats* stats) const {
  stats->accepts = accepts.load(std::memory_order_relaxed);
  stats->active_connections = active.load(std::memory_order_relaxed);
  stats->disconnects = disconnects.load(std::memory_order_relaxed);
  stats->slow_disconnects = slow_disconnects.load(std::memory_order_relaxed);
}

Connection::Connection(EventLoop& loop, int fd,
                       const FrameDecoder::Options& dopts)
    : loop_(loop), fd_(fd), decoder_(dopts) {
  // Writes are already batched per recv() chunk; never let Nagle hold them.
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  gen_ = loop_.Add(fd_, EPOLLIN);
}

Connection::~Connection() {
  if (registered()) loop_.Remove(fd_);
  close(fd_);
}

void Connection::QueueError(ErrorCode code, std::string_view message) {
  if (closing_) return;
  out_.Encode(EncodeErrorTo, code, message);
  closing_ = true;
}

Connection::Status Connection::Flush(size_t cap, IoStats* io) {
  if (out_.FlushTo(fd_, io) == WriteQueue::FlushResult::kError) {
    return Status::kClosed;
  }
  // Slow consumer: the socket cannot drain what we owe it. Disconnect
  // rather than buffer without bound or stall everyone else on the loop.
  if (out_.bytes() > cap) return Status::kSlow;
  if (closing_ && out_.empty()) return Status::kDone;
  const bool want = !out_.empty();
  if (want != want_write_) {
    want_write_ = want;
    loop_.Modify(fd_, gen_, EPOLLIN | (want ? EPOLLOUT : 0u));
  }
  return Status::kOpen;
}

}  // namespace qf::net
