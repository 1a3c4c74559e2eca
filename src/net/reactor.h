// The one event loop, connection type and client plane behind every epoll
// front end (DESIGN.md §11): QfServer reactors, and the cluster
// coordinator's client connections and backend links, are thin users of
// these classes.
//
// Policies every user gets:
//   * Event tokens are fd | gen << 32 with a fresh gen per registration;
//     owners drop events whose gen is not the live connection's, so a
//     stale event for a closed-and-reused fd is never misapplied.
//   * Accept never spins: under EMFILE/ENFILE the loop spends its reserve
//     fd to accept and close the pending connection (the client reads
//     EOF), then reopens the reserve.
//   * One flush per recv() chunk, early once the queue passes the cap;
//     reading stops when recv() returns less than its buffer.
//   * One slow-consumer rule: a queue still above the cap after a flush
//     reports kSlow, and the owner closes the connection.
//   * One client table per loop (ClientTable): the connection cap, close
//     accounting, alert fan-out and kShutdown handshake of every front end.
//
// Linux-only (epoll + eventfd + SO_REUSEPORT).

#ifndef QUANTILEFILTER_NET_REACTOR_H_
#define QUANTILEFILTER_NET_REACTOR_H_

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"

namespace qf::net {

/// Socket traffic, for the server's qf_net_* counters (the coordinator
/// passes nullptr).
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_calls = 0;       // recv() calls, including EAGAIN and EOF ones
  uint64_t write_calls = 0;      // sendmsg() calls, including EAGAIN ones
  uint64_t protocol_errors = 0;  // streams poisoned by malformed frames
};

/// Iovec write queue: frames append into the tail block or arrive as whole
/// moved-in blocks (zero copy), and FlushTo hands the kernel up to kMaxIov
/// blocks per sendmsg. Spent blocks are recycled as spares.
class WriteQueue {
 public:
  enum class FlushResult { kDrained, kBlocked, kError };

  static constexpr size_t kMaxIov = 64;
  static constexpr size_t kTailSoftCapBytes = 64u << 10;
  static constexpr size_t kMaxSpares = 4;
  static constexpr size_t kMaxSpareCapacity = 1u << 20;

  bool empty() const { return bytes_ == 0; }
  size_t bytes() const { return bytes_; }
  size_t spares() const { return spares_.size(); }

  /// Appends frames via `encode(std::vector<uint8_t>*)`.
  template <typename Fn>
  void Append(Fn&& encode) {
    std::vector<uint8_t>& tail = TailBlock();
    const size_t before = tail.size();
    encode(&tail);
    bytes_ += tail.size() - before;
  }
  /// Appends one frame via a protocol encoder: encode(args..., out).
  template <typename... Args, typename... Params>
  void Encode(void (*encode)(Params...), const Args&... args) {
    Append([&](std::vector<uint8_t>* out) { encode(args..., out); });
  }

  /// Takes ownership of a fully formed frame block.
  void PushBlock(std::vector<uint8_t> block);
  /// Hands back a spent block (cleared, capacity kept) for reuse.
  std::vector<uint8_t> TakeSpare();
  /// Sends as much as the socket takes, in queue order.
  FlushResult FlushTo(int fd, IoStats* io);

 private:
  std::vector<uint8_t>& TailBlock();
  void Consume(size_t n);

  std::deque<std::vector<uint8_t>> blocks_;
  size_t head_off_ = 0;  // flushed bytes of blocks_.front()
  size_t bytes_ = 0;
  std::vector<std::vector<uint8_t>> spares_;
};

/// One reactor thread's epoll loop. Everything except Wake() and Post() is
/// called from the owning thread.
class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop() { Close(); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates epoll, the wake eventfd and the accept reserve fd, and binds
  /// a listen socket on host:port (0 = ephemeral; see port()). With
  /// `reuseport` it joins a SO_REUSEPORT group: loop 0 binds the configured
  /// port, later loops pass loop 0's port(), and the kernel spreads
  /// connections over the group. Returns false with *error set.
  bool Open(const std::string& host, uint16_t port, bool reuseport,
            std::string* error);

  /// Closes every fd the loop owns. Only once no thread can Wake() it.
  void Close();

  uint16_t port() const { return port_; }

  /// Registers `fd` for `events` under a fresh generation and returns it
  /// (never 0); returns 0 if epoll refuses the fd.
  uint32_t Add(int fd, uint32_t events);
  void Modify(int fd, uint32_t gen, uint32_t events);
  void Remove(int fd);

  /// Interrupts a Poll in progress (any thread).
  void Wake();
  /// Queues `fn` for the loop thread's next RunPosted and wakes the loop
  /// (any thread).
  void Post(std::function<void()> fn);
  void RunPosted();

  /// One epoll_wait of up to `timeout_ms`: on_event(fd, gen, events) per
  /// ready connection, then on_accept(fd) per accepted socket (nonblocking;
  /// the callback owns it). Returns false if epoll itself failed.
  template <typename OnEvent, typename OnAccept>
  bool Poll(int timeout_ms, OnEvent&& on_event, OnAccept&& on_accept) {
    const int n = epoll_wait(epoll_fd_, events_, kMaxEvents, timeout_ms);
    if (n < 0) return errno == EINTR;
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events_[i].data.u64;
      const int fd = static_cast<int>(token & 0xffffffffu);
      if (fd == wake_fd_) {
        DrainWake();
      } else if (fd == listen_fd_) {
        accept_ready = true;
      } else {
        on_event(fd, static_cast<uint32_t>(token >> 32), events_[i].events);
      }
    }
    if (accept_ready) {
      for (int fd = AcceptOne(); fd >= 0; fd = AcceptOne()) on_accept(fd);
    }
    return true;
  }

 private:
  static constexpr int kMaxEvents = 128;

  /// Next pending connection, or -1 once none is left.
  int AcceptOne();
  void DrainWake();

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int reserve_fd_ = -1;  // spent to refuse a connection under EMFILE
  uint16_t port_ = 0;
  uint32_t next_gen_ = 0;
  epoll_event events_[kMaxEvents];

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
};

/// One nonblocking TCP_NODELAY socket on an EventLoop. The constructor
/// registers the fd (check registered()); the destructor deregisters and
/// closes it.
class Connection {
 public:
  enum class Status {
    kOpen,       // alive, nothing for the owner to do
    kStopped,    // on_frame returned false; the connection may be gone
    kClosed,     // peer EOF or socket error
    kSlow,       // queue still above the cap after a flush
    kDone,       // closing, and the queue has drained
  };

  Connection(EventLoop& loop, int fd, const FrameDecoder::Options& dopts);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// False if epoll refused the fd; the owner then drops the connection.
  bool registered() const { return gen_ != 0; }
  int fd() const { return fd_; }
  uint32_t gen() const { return gen_; }
  WriteQueue& out() { return out_; }
  const WriteQueue& out() const { return out_; }

  /// True once a terminal ERROR is queued: later input is discarded and
  /// the drained flush reports kDone.
  bool closing() const { return closing_; }
  /// Queues the terminal ERROR frame (once); the next Flush sends it.
  void QueueError(ErrorCode code, std::string_view message);

  /// Sends what the socket takes, applies the slow-consumer rule, and keeps
  /// EPOLLOUT armed exactly while bytes remain queued.
  Status Flush(size_t cap, IoStats* io);

  /// The per-event step. EPOLLHUP/EPOLLERR → kClosed; EPOLLOUT → Flush;
  /// EPOLLIN → ReadFrames: read until the socket would block, handing each
  /// frame to on_frame(const FrameView&) (the view dies when the decoder
  /// is next fed). on_frame returns false once the owner closed this
  /// connection or stopped wanting its frames; kStopped then returns
  /// without touching it again. A malformed stream gets one ERROR.
  template <typename OnFrame>
  Status OnEvents(uint32_t events, size_t cap, IoStats* io,
                  OnFrame&& on_frame) {
    if (events & (EPOLLHUP | EPOLLERR)) return Status::kClosed;
    if (events & EPOLLOUT) {
      const Status s = Flush(cap, io);
      if (s != Status::kOpen) return s;
    }
    return (events & EPOLLIN) ? ReadFrames(cap, io, on_frame) : Status::kOpen;
  }

 private:
  template <typename OnFrame>
  Status ReadFrames(size_t cap, IoStats* io, OnFrame& on_frame) {
    uint8_t buf[kStreamChunkBytes];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (io != nullptr) ++io->read_calls;
      if (n == 0) return Status::kClosed;
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK ? Status::kOpen
                                                       : Status::kClosed;
      }
      if (io != nullptr) io->bytes_read += static_cast<uint64_t>(n);
      if (!closing_) {
        FrameView frame;
        FrameDecoder::Result r = FrameDecoder::Result::kError;
        if (decoder_.Append(buf, static_cast<size_t>(n))) {
          while ((r = decoder_.NextView(&frame)) ==
                 FrameDecoder::Result::kFrame) {
            if (!on_frame(frame)) return Status::kStopped;
            // Past the cap, flush now: a chunk of small requests for large
            // replies must not grow the queue without bound.
            if (out_.bytes() > cap) {
              const Status s = Flush(cap, io);
              if (s != Status::kOpen) return s;
            }
          }
        }
        if (r == FrameDecoder::Result::kError) {
          if (io != nullptr) ++io->protocol_errors;
          QueueError(ErrorCode::kMalformedFrame, decoder_.error());
        }
      }
      const Status s = Flush(cap, io);
      if (s != Status::kOpen) return s;
      if (static_cast<size_t>(n) < sizeof(buf)) return Status::kOpen;
    }
  }

  EventLoop& loop_;
  const int fd_;
  uint32_t gen_ = 0;
  bool want_write_ = false;  // EPOLLOUT armed
  bool closing_ = false;
  FrameDecoder decoder_;
  WriteQueue out_;
};

/// One front end's client plane, shared by the ClientTables of its loops:
/// the four client-plane series (named once, in protocol.cc), the
/// subscriber count and the kShutdown flag.
struct ClientPlane {
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> active{0};
  std::atomic<uint64_t> disconnects{0};
  std::atomic<uint64_t> slow_disconnects{0};
  std::atomic<int> subscribers{0};     // across every loop
  std::atomic<bool> stopping{false};   // a kShutdown was acked

  /// Copies the four series into their WireStats fields.
  void Fill(WireStats* stats) const;
};

/// Names a client across loop turns: a deferred reply resolves it with
/// ClientTable::Find and is dropped if the client has gone (or its fd was
/// reused: the generation differs).
struct ClientRef {
  int fd = -1;
  uint32_t gen = 0;
};

struct NoClientState {};

/// One loop's clients: the fd → client map every front end serves from, and
/// the policies they share. Accept caps the loop at kMaxClients; a status
/// other than kOpen closes the client and counts it (kSlow as a slow
/// consumer); an error is one terminal ERROR frame, then close once it has
/// drained; alerts fan out with a gap-free per-subscriber seq. Each front
/// end attaches its own per-client `State`. `io` (may be null) accumulates
/// the socket traffic of every call. Loop thread only.
template <typename State = NoClientState>
class ClientTable {
 public:
  /// Accepted connections past this many on one loop are closed at once.
  static constexpr size_t kMaxClients = 1024;

  struct Client {
    Client(EventLoop& loop, int fd, const FrameDecoder::Options& dopts)
        : io(loop, fd, dopts) {}
    ClientRef ref() const { return {io.fd(), io.gen()}; }

    Connection io;
    bool subscribed = false;
    uint64_t alert_seq = 0;  // seq of the next ALERT on this connection
    State state{};
  };

  /// `loop` and `plane` must outlive the table; connections deregister on
  /// the loop, so declare the table after it.
  ClientTable(EventLoop& loop, ClientPlane& plane, size_t max_write_queue_bytes,
              size_t max_frame_bytes, IoStats* io)
      : loop_(loop), plane_(plane), cap_(max_write_queue_bytes), io_(io) {
    dopts_.max_frame_bytes = max_frame_bytes;
  }
  ClientTable(const ClientTable&) = delete;
  ClientTable& operator=(const ClientTable&) = delete;

  Client* Find(ClientRef ref) const {
    auto it = clients_.find(ref.fd);
    return it != clients_.end() && it->second->io.gen() == ref.gen
               ? it->second.get()
               : nullptr;
  }

  /// The accept callback: adopts `fd` (owned either way) and returns the
  /// client, or nullptr if the loop is full or epoll refused the fd.
  Client* Accept(int fd) {
    if (clients_.size() >= kMaxClients) {
      close(fd);
      return nullptr;
    }
    auto c = std::make_unique<Client>(loop_, fd, dopts_);
    if (!c->io.registered()) return nullptr;  // destroying c closes the fd
    Client* p = c.get();
    clients_.emplace(fd, std::move(c));
    plane_.accepts.fetch_add(1, std::memory_order_relaxed);
    plane_.active.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  /// The per-event step. False if (fd, gen) names no live client: a stale
  /// event, or a connection the front end owns itself. Otherwise hands
  /// each frame to on_frame(Client*, const FrameView&), which may close the
  /// client or queue its terminal ERROR (reading then stops), and settles.
  template <typename OnFrame>
  bool Serve(int fd, uint32_t gen, uint32_t events, OnFrame&& on_frame) {
    Client* c = Find({fd, gen});
    if (c == nullptr) return false;
    reading_ = c;
    // `c` can only be gone if a close happened during on_frame, so the map
    // is searched again only when the close count moved.
    uint64_t closes = closes_;
    const Connection::Status status =
        c->io.OnEvents(events, cap_, io_, [&](const FrameView& frame) {
          on_frame(c, frame);
          if (closes_ != closes) {
            if (Find({fd, gen}) == nullptr) return false;
            closes = closes_;
          }
          return !c->io.closing();
        });
    reading_ = nullptr;
    Settle(c, status);
    return true;
  }

  /// The client whose recv() chunk Serve is handling: its replies leave in
  /// the chunk's one flush.
  const Client* reading() const { return reading_; }

  /// Sends what the socket takes. False if the client was closed.
  bool Flush(Client* c) { return Settle(c, c->io.Flush(cap_, io_)); }

  /// Queues the terminal ERROR frame: closes at once if it drained,
  /// otherwise once EPOLLOUT drains it.
  void SendError(Client* c, ErrorCode code, std::string_view message) {
    c->io.QueueError(code, message);
    Flush(c);
  }

  void Close(Client* c, bool slow) {
    if (c->subscribed) {
      plane_.subscribers.fetch_sub(1, std::memory_order_relaxed);
    }
    clients_.erase(c->io.fd());  // frees c; its Connection closes the fd
    ++closes_;
    plane_.active.fetch_sub(1, std::memory_order_relaxed);
    plane_.disconnects.fetch_add(1, std::memory_order_relaxed);
    if (slow) plane_.slow_disconnects.fetch_add(1, std::memory_order_relaxed);
  }

  /// Closes every client (loop exit), counting each close, so a stopped
  /// front end reports active == 0 and disconnects == accepts.
  void CloseAll() {
    for (const auto& [fd, c] : clients_) {
      if (c->subscribed) {
        plane_.subscribers.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    plane_.active.fetch_sub(clients_.size(), std::memory_order_relaxed);
    plane_.disconnects.fetch_add(clients_.size(), std::memory_order_relaxed);
    closes_ += clients_.size();
    clients_.clear();
  }

  /// SUBSCRIBE: (un)subscribes `c` and encodes the echo that acknowledges
  /// it into `echo`; alerts stream after the echo. False (an ERROR sent,
  /// `c` possibly gone) if the payload is malformed.
  bool Subscribe(Client* c, const FrameView& frame,
                 std::vector<uint8_t>* echo) {
    SubscribeRequest req;
    if (!ParseSubscribe(frame.payload, &req)) {
      SendError(c, ErrorCode::kBadPayload, "malformed SUBSCRIBE payload");
      return false;
    }
    if (req.enable != c->subscribed) {
      plane_.subscribers.fetch_add(req.enable ? 1 : -1,
                                   std::memory_order_relaxed);
    }
    c->subscribed = req.enable;
    EncodeSubscribeTo(req.token, req.enable, echo);
    return true;
  }

  /// Appends `batch` to every subscriber, re-sequenced per subscriber, then
  /// flushes each once (a slow one is closed). Returns how many got it.
  size_t FanOut(std::span<const WireAlert> batch) {
    if (batch.empty()) return 0;
    // Staged first: a flush can close its subscriber (never another
    // client), which must not happen while iterating the map.
    std::vector<Client*> subscribers;
    for (const auto& [fd, c] : clients_) {
      if (c->subscribed && !c->io.closing()) subscribers.push_back(c.get());
    }
    for (Client* c : subscribers) {
      c->io.out().Append([&](std::vector<uint8_t>* out) {
        for (WireAlert alert : batch) {
          alert.seq = c->alert_seq++;
          EncodeAlertTo(alert, out);
        }
      });
      Flush(c);
    }
    return subscribers.size();
  }

  /// Refuses a frame once a kShutdown was acked: an ERROR, then close.
  bool RefuseIfStopping(Client* c) {
    if (!plane_.stopping.load(std::memory_order_acquire)) return false;
    SendError(c, ErrorCode::kShuttingDown, "server is shutting down");
    return true;
  }

  /// The kShutdown handshake, after `c`'s ack is queued: marks the plane
  /// stopping (the front end wakes its other loops) and keeps this loop
  /// running until ShutdownDrained.
  void BeginShutdown(Client* c) {
    shutdown_ = c->ref();
    plane_.stopping.store(true, std::memory_order_release);
  }

  /// True once the plane is stopping and this loop owes no shutdown ack:
  /// it was asked on another loop, its client has gone, or the ack has
  /// drained. `owes(state)` is true while the front end still holds
  /// replies for the client outside its write queue.
  template <typename Owes>
  bool ShutdownDrained(Owes&& owes) const {
    if (!plane_.stopping.load(std::memory_order_acquire)) return false;
    const Client* c = Find(shutdown_);
    return c == nullptr || (c->io.out().empty() && !owes(c->state));
  }
  bool ShutdownDrained() const {
    return ShutdownDrained([](const State&) { return false; });
  }

 private:
  /// Closes the client a status ends. False unless it is still open.
  bool Settle(Client* c, Connection::Status status) {
    if (status == Connection::Status::kOpen) return true;
    if (status != Connection::Status::kStopped) {
      Close(c, /*slow=*/status == Connection::Status::kSlow);
    }
    return false;
  }

  EventLoop& loop_;
  ClientPlane& plane_;
  const size_t cap_;  // max_write_queue_bytes: the slow-consumer cap
  IoStats* const io_;
  FrameDecoder::Options dopts_;
  std::unordered_map<int, std::unique_ptr<Client>> clients_;
  uint64_t closes_ = 0;  // clients erased so far; lets Serve skip a Find
  Client* reading_ = nullptr;
  ClientRef shutdown_;  // the client owed this loop's kShutdown ack
};

}  // namespace qf::net

#endif  // QUANTILEFILTER_NET_REACTOR_H_
