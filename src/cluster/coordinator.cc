#include "cluster/coordinator.h"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/coalesce.h"
#include "cluster/topology.h"
#include "common/time.h"
#include "net/client.h"
#include "net/reactor.h"
#include "obs/instrument.h"
#include "obs/registry.h"

namespace qf::cluster {
namespace {

using net::BackendState;
using net::ClientRef;
using net::Connection;
using net::ControlOp;
using net::ControlStatus;
using net::ErrorCode;
using net::FrameDecoder;
using net::FrameType;
using net::FrameView;

uint64_t NowMs() { return MonotonicNanos() / 1000000ull; }

#if QF_METRICS
/// Coordinator data-plane series (DESIGN.md §16.5), visible through the
/// coordinator's own kMetrics rollup and qf_top --connect.
struct ClusterMetrics {
  obs::Counter& coalesced_flushes;
  obs::Counter& coalesced_items;
  obs::Gauge& ledger_depth;
  obs::Histogram& batch_items;
  obs::Histogram& flush_interval_ns;

  static ClusterMetrics& Get() {
    static ClusterMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new ClusterMetrics{
          r.GetCounter("qf_cluster_coalesced_flushes_total",
                       "coalesced INGEST frames flushed to backends"),
          r.GetCounter("qf_cluster_coalesced_items_total",
                       "items carried by coalesced backend INGEST frames"),
          r.GetGauge("qf_cluster_credit_ledger_depth",
                     "unacked coalesced frames across backend connections"),
          r.GetHistogram("qf_cluster_coalesced_batch_items",
                         "items per coalesced backend INGEST frame", "items"),
          r.GetHistogram("qf_cluster_flush_interval_ns",
                         "time between coalesced flushes on one backend "
                         "connection",
                         "ns"),
      };
    }();
    return *m;
  }
};
#endif

}  // namespace

struct Coordinator::Impl {
  explicit Impl(const CoordinatorOptions& opts)
      : opts(opts),
        clients(loop, plane, opts.max_write_queue_bytes, opts.max_frame_bytes,
                /*io=*/nullptr) {}

  /// epoll timeout: the loop wakes at least this often to kick backend
  /// reconnects; every non-empty coalescing buffer flushes each tick.
  static constexpr int kPollTimeoutMs = 50;

  CoordinatorOptions opts;
  std::string error;
  uint16_t bound_port = 0;
  bool started = false;
  size_t co_cap_bytes = 0;  // effective coalescing-buffer byte cap

  std::atomic<bool> stop_flag{false};
  std::atomic<bool> running{false};  // Start() until the loop exits

  uint64_t total_items_acked = 0;
  /// Client-plane series, subscriber count and kShutdown flag.
  net::ClientPlane plane;

  // ---- per-client state -------------------------------------------------
  // Replies to one client go out strictly in request order: every request
  // appends a PendingReply and completed entries drain from the front.
  // shared_ptr because ledger credits outlive a client that disconnects
  // mid-request (completions then no-op via the ClientRef lookup).
  struct PendingReply {
    enum Kind { kIngestR, kQueryR, kControlFan, kLocal };
    Kind kind = kLocal;
    uint64_t token = 0;  // the client's token
    int outstanding = 0;
    bool failed = false;
    std::string fail_msg;
    // kIngestR
    uint32_t count = 0;
    // kQueryR
    std::vector<net::QueryAnswer> answers;
    // kControlFan (kStats/kMetrics: the merged backend snapshots)
    ControlOp op = ControlOp::kStats;
    ControlStatus status = ControlStatus::kOk;
    obs::MetricsSnapshot metrics;
    // kLocal: a fully encoded reply frame.
    std::vector<uint8_t> local_frame;
  };

  struct ClientState {
    std::deque<std::shared_ptr<PendingReply>> replies;
  };
  using Clients = net::ClientTable<ClientState>;
  using ClientConn = Clients::Client;

  /// One client request folded into a coalesced backend frame.
  struct Credit {
    std::shared_ptr<PendingReply> reply;
    ClientRef client;
  };

  /// QUERY/CONTROL sub-request bookkeeping (INGEST uses the credit ledger).
  struct SubOp {
    enum Kind { kQuery, kControl };
    Kind kind = kQuery;
    ClientRef client;
    std::shared_ptr<PendingReply> reply;
    std::vector<uint32_t> positions;  // kQuery: answer slots, in key order
  };

  struct Backend {
    uint32_t idx = 0;
    std::string host;
    uint16_t port = 0;
    BackendState state = BackendState::kDisconnected;
    std::unique_ptr<Connection> link;  // null while disconnected
    bool connecting = false;  // nonblocking connect() in flight
    uint64_t connect_deadline_ms = 0;
    uint64_t next_token = 1;
    uint64_t subscribe_token = 0;  // upstream-subscription handshake
    std::unordered_map<uint64_t, SubOp> inflight;
    // Coalescing data plane: the open buffer, its credits, and the FIFO
    // ack ledger for flushed frames.
    IngestFrameBuilder co_buf;
    std::vector<Credit> co_credits;
    uint64_t credit_epoch = 0;  // last ingest_epoch that added a credit
    uint64_t last_flush_ns = 0;
    CreditLedger<Credit> ledger;
    uint64_t alert_rx_seq = 0;  // per-connection contiguity check
    // Coalesced-frame FIFO counters; the migration fence barrier waits on
    // acked catching up to sent.
    uint64_t ingest_sent = 0;
    uint64_t ingest_acked = 0;
    int backoff_ms = 0;
    uint64_t next_attempt_ms = 0;
    obs::Gauge* queued_gauge = nullptr;
    int64_t queued_reported = 0;
  };

  struct FencedBatch {
    std::shared_ptr<PendingReply> reply;
    ClientRef client;
    std::vector<Item> items;
  };

  // Everything below is touched only by the loop thread (and by Stop()
  // once that thread has joined); the migration worker reaches it through
  // loop.Post().
  net::EventLoop loop;  // declared before every Connection owner
  Clients clients;
  std::thread thread;

  Topology topo;
  std::vector<Backend> backends;
  /// Upstream alerts received this tick, fanned out at its end.
  std::vector<net::WireAlert> alerts;

  // ---- migration fence --------------------------------------------------
  bool fenced = false;
  uint32_t fenced_slot = 0;
  std::vector<FencedBatch> fence_buffer;
  bool barrier_armed = false;
  uint32_t barrier_backend = 0;
  uint64_t barrier_target = 0;
  std::shared_ptr<std::promise<bool>> barrier_promise;

  /// Bumped once per client INGEST frame (and per fence-replay batch):
  /// a backend adds at most one credit per epoch per open buffer.
  uint64_t ingest_epoch = 0;

  // Scatter arenas, sized once at Start; only touched entries are
  // cleared between frames (no per-frame resize/clear churn).
  std::vector<std::vector<uint64_t>> scatter_keys;
  std::vector<std::vector<uint32_t>> scatter_pos;
  std::vector<uint32_t> scatter_touched;
  std::vector<Item> fenced_scratch;

  // ---- migration --------------------------------------------------------
  // The loop thread is the worker's only spawner (StartMigration) and
  // Stop() joins it only after joining the loop thread, so the handle
  // needs no lock.
  bool migration_active = false;
  std::thread migration_worker;
  std::shared_ptr<PendingReply> migrate_reply;
  ClientRef migrate_client;

  FrameDecoder::Options DecoderOpts() const {
    FrameDecoder::Options d;
    d.max_frame_bytes = opts.max_frame_bytes;
    return d;
  }

  // ======================================================================
  // Lifecycle

  bool Fail(const std::string& why) {
    error = why;
    return false;
  }

  bool Start() {
    if (opts.backends.empty()) return Fail("no backends configured");
    if (opts.num_slots == 0) return Fail("num_slots must be positive");
    if (opts.reactors != 1) {
      return Fail("reactors must be 1: the coordinator runs one event loop");
    }
    const size_t n_backends = opts.backends.size();
    // The coalescing cap must fit at least one item under the frame cap.
    co_cap_bytes = std::clamp(opts.coalesce_max_bytes,
                              IngestFrameBuilder::kPrefixBytes +
                                  IngestFrameBuilder::kItemBytes,
                              opts.max_frame_bytes);
    backends.resize(n_backends);
    for (size_t b = 0; b < n_backends; ++b) {
      Backend& be = backends[b];
      be.idx = static_cast<uint32_t>(b);
      if (!SplitHostPort(opts.backends[b], &be.host, &be.port)) {
        backends.clear();
        return Fail("bad backend address: " + opts.backends[b]);
      }
      be.backoff_ms = opts.backend_backoff_initial_ms;
#if QF_METRICS
      be.queued_gauge = &obs::MetricsRegistry::Global().GetGauge(
          "qf_cluster_backend_queued_bytes{backend=\"" + std::to_string(b) +
              "\"}",
          "bytes queued (coalescing + write queue) toward one backend");
#endif
    }
    topo = Topology(opts.backends, opts.num_slots);
    scatter_keys.resize(n_backends);
    scatter_pos.resize(n_backends);
    if (!loop.Open(opts.host, opts.port, /*reuseport=*/false, &error)) {
      backends.clear();
      return false;
    }
    bound_port = loop.port();
    running.store(true, std::memory_order_release);
    thread = std::thread([this] { Loop(); });
    started = true;
    return true;
  }

  void Stop() {
    if (!started) return;
    stop_flag.store(true, std::memory_order_release);
    loop.Wake();
    if (thread.joinable()) thread.join();
    // A migration worker may still be parked on a fence/flip future whose
    // command the loop never drained. Keep draining (commands are
    // stop-aware and fail fast) until the worker exits.
    if (migration_worker.joinable()) {
      std::atomic<bool> joined{false};
      std::thread joiner([&] {
        migration_worker.join();
        joined.store(true, std::memory_order_release);
      });
      while (!joined.load(std::memory_order_acquire)) {
        loop.RunPosted();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      joiner.join();
    }
    loop.RunPosted();
    loop.Close();  // every thread that can Wake() has exited by here
    started = false;
  }

  /// Stop() was called or a client's kShutdown was acked: loop-side
  /// commands fail fast.
  bool Stopping() const {
    return stop_flag.load(std::memory_order_acquire) ||
           plane.stopping.load(std::memory_order_acquire);
  }

  // ======================================================================
  // Event loop

  void Loop() {
    // After a kShutdown the loop runs on until its ack (queued behind any
    // reply still owed by a backend) has drained.
    const auto owes = [](const ClientState& s) { return !s.replies.empty(); };
    while (!stop_flag.load(std::memory_order_acquire) &&
           !clients.ShutdownDrained(owes)) {
      loop.RunPosted();
      KickBackendConnects(NowMs());
      const bool polled = loop.Poll(
          kPollTimeoutMs,
          [&](int fd, uint32_t gen, uint32_t events) {
            OnEvent(fd, gen, events);
          },
          [&](int fd) { clients.Accept(fd); });
      if (!polled) break;
      // End of tick: every open coalescing buffer flushes, so coalescing
      // merges exactly what this epoll batch delivered (latency neutral).
      for (Backend& b : backends) {
        FlushCoalesce(b);
        UpdateQueuedGauge(b);
      }
      clients.FanOut(alerts);
      alerts.clear();
    }
    // Unblock a migration worker parked on a fence/flip future: drain the
    // remaining commands (they are stop-aware and fail fast), then fulfill
    // any ack barrier armed before the stop with failure.
    loop.RunPosted();
    if (barrier_armed) {
      barrier_armed = false;
      barrier_promise->set_value(false);
    }
    clients.CloseAll();
    // With no clients left, failing a backend just drops its link, buffers
    // and ledger (keeping the gauges balanced).
    for (Backend& b : backends) FailBackend(b, NowMs());
    // listen/wake/epoll stay open: Wake() writes wake_fd from other
    // threads, so Stop() closes them only after every waker has joined.
    running.store(false, std::memory_order_release);
  }

  // ======================================================================
  // Client plane

  /// Routes one epoll event by fd, dropping it unless its generation is
  /// the live connection's (a stale event for a closed-and-reused fd).
  void OnEvent(int fd, uint32_t gen, uint32_t events) {
    if (clients.Serve(fd, gen, events,
                      [&](ClientConn* c, const FrameView& frame) {
                        DispatchClientFrame(c, frame);
                      })) {
      return;
    }
    for (Backend& b : backends) {
      if (b.link != nullptr && b.link->fd() == fd && b.link->gen() == gen) {
        HandleBackendEvent(b, events);
        return;
      }
    }
  }

  void DispatchClientFrame(ClientConn* c, const FrameView& frame) {
    if (clients.RefuseIfStopping(c)) return;
    switch (frame.type) {
      case FrameType::kIngest:
        HandleIngest(c, frame);
        return;
      case FrameType::kQuery:
        HandleQuery(c, frame);
        return;
      case FrameType::kSubscribe: {
        std::vector<uint8_t> echo;
        if (clients.Subscribe(c, frame, &echo)) {
          QueueLocalReply(c, std::move(echo));
        }
        return;
      }
      case FrameType::kControl:
        HandleControl(c, frame);
        return;
      default:
        clients.SendError(c, ErrorCode::kUnsupportedType,
                          std::string("unexpected frame type: ") +
                              net::FrameTypeName(frame.type));
        return;
    }
  }

  /// Queues an already-complete locally-answered reply, preserving the
  /// per-client response order (earlier fanned-out requests flush first).
  void QueueLocalReply(ClientConn* c, std::vector<uint8_t> frame) {
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kLocal;
    reply->local_frame = std::move(frame);
    c->state.replies.push_back(std::move(reply));
    TryFlushReplies(c);
  }

  void QueueControlStatus(ClientConn* c, uint64_t token, ControlOp op,
                          ControlStatus status) {
    std::vector<uint8_t> frame;
    net::EncodeControlResultTo(token, op, status, {}, &frame);
    QueueLocalReply(c, std::move(frame));
  }

  /// As below, for a client that may have gone since the request.
  void TryFlushReplies(ClientRef ref) {
    if (ClientConn* c = clients.Find(ref)) TryFlushReplies(c);
  }

  void TryFlushReplies(ClientConn* c) {
    while (!c->state.replies.empty()) {
      PendingReply& reply = *c->state.replies.front();
      if (reply.failed) {
        clients.SendError(c, ErrorCode::kInternal, reply.fail_msg);
        return;
      }
      if (reply.outstanding > 0) break;
      AppendReplyFrame(c, reply);
      c->state.replies.pop_front();
    }
    // A client mid-read flushes once, at the end of its recv() chunk.
    if (c != clients.reading()) clients.Flush(c);
  }

  void AppendReplyFrame(ClientConn* c, PendingReply& reply) {
    switch (reply.kind) {
      case PendingReply::kLocal:
        c->io.out().PushBlock(std::move(reply.local_frame));
        return;
      case PendingReply::kIngestR: {
        total_items_acked += reply.count;
        c->io.out().Encode(net::EncodeIngestAckTo, reply.token, reply.count,
                           total_items_acked);
        return;
      }
      case PendingReply::kQueryR:
        c->io.out().Encode(net::EncodeQueryResultTo, reply.token,
                           reply.answers);
        return;
      case PendingReply::kControlFan: {
        std::vector<uint8_t> payload;
        if (reply.status == ControlStatus::kOk &&
            reply.op != ControlOp::kDrain) {
          if (reply.op == ControlOp::kMetrics) MergeLocalClusterMetrics(reply);
          net::WireStats own;
          plane.Fill(&own);
          net::OverlayClientPlane(own, &reply.metrics);
          // Stamped by the process that assembled the rollup.
          reply.metrics.wall_ns = WallNanos();
          reply.metrics.mono_ns = MonotonicNanos();
          net::EncodeMetricsPayloadTo(reply.metrics, &payload);
          if (payload.size() + 10 > opts.max_frame_bytes) {
            payload.clear();
            reply.status = ControlStatus::kRejected;
          }
        }
        c->io.out().Encode(net::EncodeControlResultTo, reply.token, reply.op,
                           reply.status, payload);
        return;
      }
    }
  }

  /// Folds the coordinator's own qf_cluster_* series into a kMetrics
  /// rollup, so the coalescing data plane is observable through the same
  /// fan-out that returns backend metrics (qf_top --connect).
  void MergeLocalClusterMetrics(PendingReply& reply) {
#if QF_METRICS
    ClusterMetrics::Get();  // ensure the series exist even before traffic
    obs::MetricsSnapshot mine = obs::MetricsRegistry::Global().Snapshot();
    const auto keep_cluster = [](auto& samples) {
      std::erase_if(samples, [](const auto& s) {
        return s.name.rfind("qf_cluster_", 0) != 0;
      });
    };
    keep_cluster(mine.counters);
    keep_cluster(mine.gauges);
    keep_cluster(mine.histograms);
    obs::MergeSnapshotInto(mine, &reply.metrics);
#else
    (void)reply;
#endif
  }

  // ---- INGEST: the zero-copy coalescing hot path ------------------------

  void UpdateQueuedGauge(Backend& b) {
#if QF_METRICS
    if (b.queued_gauge == nullptr) return;
    const int64_t cur =
        static_cast<int64_t>(b.co_buf.bytes() +
                             (b.link != nullptr ? b.link->out().bytes() : 0));
    if (cur != b.queued_reported) {
      b.queued_gauge->Add(cur - b.queued_reported);
      b.queued_reported = cur;
    }
#endif
  }

  /// Seals the open coalescing buffer into one backend INGEST frame: push
  /// the credits into the ack ledger, move the preformatted bytes into the
  /// write queue (no copy), and kick the socket.
  void FlushCoalesce(Backend& b) {
    if (b.co_buf.empty()) return;
    const uint64_t token = b.next_token++;
    const uint32_t n_items = b.co_buf.items();
    std::vector<uint8_t> block = b.co_buf.Finish(token);
    b.ledger.Push(token, n_items, std::move(b.co_credits));
    b.co_credits.clear();
    b.credit_epoch = 0;
    ++b.ingest_sent;
#if QF_METRICS
    ClusterMetrics& m = ClusterMetrics::Get();
    m.coalesced_flushes.Add(1);
    m.coalesced_items.Add(n_items);
    m.ledger_depth.Add(1);
    m.batch_items.Record(n_items);
    const uint64_t now_ns = MonotonicNanos();
    if (b.last_flush_ns != 0) {
      m.flush_interval_ns.Record(now_ns - b.last_flush_ns);
    }
    b.last_flush_ns = now_ns;
#endif
    b.link->out().PushBlock(std::move(block));
    b.co_buf.Provision(b.link->out().TakeSpare());
    FlushBackend(b);
  }

  /// Appends `n` raw 16-byte item records to backend `b`'s coalescing
  /// buffer on behalf of `reply`, charging one outstanding credit per open
  /// buffer per ingest epoch and flushing mid-append when the buffer
  /// fills. Marks the reply failed (fail fast, like the legacy path) if
  /// the backend is not ready or drops during a flush.
  void AppendToCoalesce(Backend& b, const uint8_t* records, size_t n,
                        const std::shared_ptr<PendingReply>& reply,
                        ClientRef client) {
    while (n > 0 && !reply->failed) {
      if (b.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg =
            "backend " + opts.backends[b.idx] + " unavailable";
        return;
      }
      const size_t used = b.co_buf.empty()
                              ? IngestFrameBuilder::kPrefixBytes
                              : b.co_buf.bytes();
      if (used + IngestFrameBuilder::kItemBytes > co_cap_bytes) {
        FlushCoalesce(b);  // may FailBackend; loop re-checks state
        continue;
      }
      if (b.credit_epoch != ingest_epoch) {
        b.credit_epoch = ingest_epoch;
        ++reply->outstanding;
        b.co_credits.push_back(Credit{reply, client});
      }
      const size_t room =
          (co_cap_bytes - used) / IngestFrameBuilder::kItemBytes;
      const size_t take = std::min(n, room);
      b.co_buf.AppendRecords(records, take);
      records += take * IngestFrameBuilder::kItemBytes;
      n -= take;
    }
  }

  void HandleIngest(ClientConn* c, const FrameView& frame) {
    // Walk the INGEST payload in place (u64 token, u32 count, count x
    // 16-byte items) — no ParseIngest, no Item vector staging.
    const std::span<const uint8_t> p = frame.payload;
    uint64_t token = 0;
    uint32_t count = 0;
    if (p.size() < 12) {
      clients.SendError(c, ErrorCode::kBadPayload, "malformed INGEST payload");
      return;
    }
    std::memcpy(&token, p.data(), 8);
    std::memcpy(&count, p.data() + 8, 4);
    if (p.size() != 12 + static_cast<uint64_t>(count) * sizeof(Item)) {
      clients.SendError(c, ErrorCode::kBadPayload, "malformed INGEST payload");
      return;
    }
    const uint8_t* records = p.data() + 12;

    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kIngestR;
    reply->token = token;
    reply->count = count;
    // Guard credit: holds the reply open while this frame is still being
    // classified, so a reentrant ack/failure mid-loop cannot complete it.
    reply->outstanding = 1;
    c->state.replies.push_back(reply);
    const ClientRef ref = c->ref();
    ++ingest_epoch;
    fenced_scratch.clear();

    // Classify runs of consecutive same-backend items so the common case
    // (skewed or single-backend traffic) appends whole runs at once.
    size_t run_start = 0;
    uint32_t run_backend = UINT32_MAX;
    const auto flush_run = [&](size_t end) {
      if (run_backend != UINT32_MAX && end > run_start) {
        AppendToCoalesce(backends[run_backend],
                         records + run_start * sizeof(Item), end - run_start,
                         reply, ref);
      }
      run_start = end;
    };
    for (uint32_t i = 0; i < count && !reply->failed; ++i) {
      uint64_t key = 0;
      std::memcpy(&key, records + static_cast<size_t>(i) * sizeof(Item),
                  8);
      const uint32_t slot = topo.SlotOf(key);
      if (fenced && slot == fenced_slot) {
        flush_run(i);
        run_backend = UINT32_MAX;
        run_start = i + 1;
        Item item;
        std::memcpy(&item,
                    records + static_cast<size_t>(i) * sizeof(Item),
                    sizeof(Item));
        fenced_scratch.push_back(item);
        continue;
      }
      const uint32_t owner = topo.OwnerOf(slot);
      if (owner != run_backend) {
        flush_run(i);
        run_backend = owner;
      }
    }
    if (!reply->failed) flush_run(count);

    if (!fenced_scratch.empty() && !reply->failed) {
      ++reply->outstanding;
      FencedBatch batch;
      batch.reply = reply;
      batch.client = ref;
      batch.items.assign(fenced_scratch.begin(), fenced_scratch.end());
      fence_buffer.push_back(std::move(batch));
    }
    --reply->outstanding;  // drop the guard credit
    // A failing backend flush can close this client reentrantly (earlier
    // credits fail and flush an ERROR), so re-resolve the pointer.
    TryFlushReplies(ref);
  }

  // ---- QUERY ------------------------------------------------------------

  void HandleQuery(ClientConn* c, const FrameView& frame) {
    net::QueryRequest req;
    if (!net::ParseQuery(frame.payload, &req)) {
      clients.SendError(c, ErrorCode::kBadPayload, "malformed QUERY payload");
      return;
    }
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kQueryR;
    reply->token = req.token;
    reply->answers.resize(req.keys.size());

    // Arena reset: only the entries the previous QUERY touched.
    for (const uint32_t t : scatter_touched) {
      scatter_keys[t].clear();
      scatter_pos[t].clear();
    }
    scatter_touched.clear();
    for (size_t i = 0; i < req.keys.size(); ++i) {
      // Fenced slots still query their current owner: the donor holds the
      // authoritative state until the flip.
      const uint32_t b = topo.OwnerOf(topo.SlotOf(req.keys[i]));
      if (scatter_keys[b].empty()) scatter_touched.push_back(b);
      scatter_keys[b].push_back(req.keys[i]);
      scatter_pos[b].push_back(static_cast<uint32_t>(i));
    }
    reply->outstanding = static_cast<int>(scatter_touched.size());
    c->state.replies.push_back(reply);

    const ClientRef ref = c->ref();
    for (const uint32_t bi : scatter_touched) {
      Backend& be = backends[bi];
      if (be.state != BackendState::kReady) {
        reply->failed = true;
        reply->fail_msg = "backend " + opts.backends[bi] + " unavailable";
        break;
      }
      const SubOp op{SubOp::kQuery, ref, reply,
                     std::move(scatter_pos[bi])};
      if (!SendSubOp(be, op, [&](uint64_t token, auto* out) {
            net::EncodeQueryTo(token, scatter_keys[bi], out);
          })) {
        break;
      }
    }
    TryFlushReplies(ref);
  }

  /// Sends one QUERY/CONTROL sub-request to a ready backend, behind its
  /// buffered INGEST items (frames process in connection order). Returns
  /// false, with op.reply failed, if the backend dropped.
  template <typename Encode>
  bool SendSubOp(Backend& b, const SubOp& op, Encode&& encode) {
    FlushCoalesce(b);
    if (b.state == BackendState::kReady) {
      const uint64_t token = b.next_token++;
      b.link->out().Append(
          [&](std::vector<uint8_t>* out) { encode(token, out); });
      b.inflight.emplace(token, op);
      if (FlushBackend(b)) return true;
    }
    op.reply->failed = true;
    op.reply->fail_msg = "backend " + opts.backends[b.idx] + " dropped";
    return false;
  }

  // ---- SUBSCRIBE / CONTROL ----------------------------------------------

  void HandleControl(ClientConn* c, const FrameView& frame) {
    net::ControlRequest req;
    if (!net::ParseControl(frame.payload, &req)) {
      clients.SendError(c, ErrorCode::kBadPayload, "malformed CONTROL payload");
      return;
    }
    switch (req.op) {
      case ControlOp::kTopology: {
        std::vector<BackendState> states;
        states.reserve(backends.size());
        for (const Backend& b : backends) states.push_back(b.state);
        std::vector<uint8_t> payload;
        net::EncodeTopologyPayloadTo(topo.ToWire(states), &payload);
        std::vector<uint8_t> reply;
        net::EncodeControlResultTo(req.token, req.op, ControlStatus::kOk,
                                   payload, &reply);
        QueueLocalReply(c, std::move(reply));
        return;
      }
      case ControlOp::kStats:
      case ControlOp::kMetrics:
      case ControlOp::kDrain:
        FanOutControl(c, req);
        return;
      case ControlOp::kMigrate:
        StartMigration(c, req);
        return;
      case ControlOp::kShutdown:
        QueueControlStatus(c, req.token, req.op, ControlStatus::kOk);
        clients.BeginShutdown(c);
        return;
      default:
        // Backend-plane ops (checkpoint/restore/shard handoff) and unknown
        // ops: not a coordinator operation.
        QueueControlStatus(c, req.token, req.op, ControlStatus::kBadRequest);
        return;
    }
  }

  /// kStats / kMetrics / kDrain: strict fan-out — every backend must be
  /// ready, so a rollup never silently omits part of the cluster.
  void FanOutControl(ClientConn* c, const net::ControlRequest& req) {
    for (const Backend& b : backends) {
      if (b.state != BackendState::kReady) {
        QueueControlStatus(c, req.token, req.op, ControlStatus::kRejected);
        return;
      }
    }
    auto reply = std::make_shared<PendingReply>();
    reply->kind = PendingReply::kControlFan;
    reply->token = req.token;
    reply->op = req.op;
    reply->outstanding = static_cast<int>(backends.size());
    c->state.replies.push_back(reply);
    const ClientRef ref = c->ref();
    const SubOp op{SubOp::kControl, ref, reply, {}};
    for (Backend& b : backends) {
      // Control must observe every item this loop already accepted.
      if (!SendSubOp(b, op, [&](uint64_t token, auto* out) {
            net::EncodeControlTo(token, req.op, {}, out);
          })) {
        break;
      }
    }
    TryFlushReplies(ref);
  }

  // ======================================================================
  // Backend pool

  void KickBackendConnects(uint64_t now) {
    for (Backend& b : backends) {
      if (b.link != nullptr && b.connecting &&
          now >= b.connect_deadline_ms) {
        FailBackend(b, now);
        continue;
      }
      if (b.link != nullptr || now < b.next_attempt_ms) continue;
      BeginConnect(b, now);
    }
  }

  void BeginConnect(Backend& b, uint64_t now) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(b.port);
    if (getaddrinfo(b.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
        res == nullptr) {
      ScheduleRetry(b, now);
      return;
    }
    const int fd = socket(res->ai_family,
                          res->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          res->ai_protocol);
    if (fd < 0) {
      freeaddrinfo(res);
      ScheduleRetry(b, now);
      return;
    }
    const int rc = connect(fd, res->ai_addr, res->ai_addrlen);
    freeaddrinfo(res);
    if (rc != 0 && errno != EINPROGRESS) {
      close(fd);
      ScheduleRetry(b, now);
      return;
    }
    b.link = std::make_unique<Connection>(loop, fd, DecoderOpts());
    if (!b.link->registered()) {
      b.link.reset();  // closes fd
      ScheduleRetry(b, now);
      return;
    }
    // FailBackend already emptied the ledger, buffers and in-flight table.
    b.last_flush_ns = 0;
    b.alert_rx_seq = 0;
    b.ingest_sent = 0;
    b.ingest_acked = 0;
    // Even an immediate connect completes through EPOLLOUT.
    b.connecting = true;
    b.connect_deadline_ms =
        now + static_cast<uint64_t>(opts.backend_connect_timeout_ms);
    b.state = BackendState::kConnecting;
    loop.Modify(fd, b.link->gen(), EPOLLIN | EPOLLOUT);
  }

  void StartHandshake(Backend& b) {
    b.connecting = false;
    b.state = BackendState::kConnecting;
    b.subscribe_token = b.next_token++;
    b.link->out().Encode(net::EncodeSubscribeTo, b.subscribe_token, true);
    FlushBackend(b);
  }

  void ScheduleRetry(Backend& b, uint64_t now) {
    b.state = BackendState::kDisconnected;
    b.next_attempt_ms = now + static_cast<uint64_t>(b.backoff_ms);
    b.backoff_ms = std::min(b.backoff_ms * 2, opts.backend_backoff_max_ms);
  }

  /// Drops the backend connection: every ledger credit and in-flight
  /// sub-op fails its client fast (the alternative — silently stalling
  /// acks — wedges pipelined senders), the open coalescing buffer is
  /// discarded with its credits, the fence barrier aborts, and a backoff
  /// reconnect starts.
  void FailBackend(Backend& b, uint64_t now) {
    b.link.reset();  // deregisters and closes the socket
    ScheduleRetry(b, now);
    if (barrier_armed && barrier_backend == b.idx) {
      barrier_armed = false;
      barrier_promise->set_value(false);
    }
    auto entries = b.ledger.TakeAll();
#if QF_METRICS
    if (!entries.empty()) {
      ClusterMetrics::Get().ledger_depth.Add(
          -static_cast<int64_t>(entries.size()));
    }
#endif
    auto open_credits = std::move(b.co_credits);
    b.co_credits.clear();
    b.credit_epoch = 0;
    b.co_buf.Reset();
    UpdateQueuedGauge(b);
    auto inflight = std::move(b.inflight);
    b.inflight.clear();
    const std::string msg = "backend " + opts.backends[b.idx] + " dropped";
    const auto fail_credit = [&](Credit& credit) {
      if (credit.reply == nullptr) return;
      credit.reply->failed = true;
      if (credit.reply->fail_msg.empty()) credit.reply->fail_msg = msg;
      TryFlushReplies(credit.client);
    };
    for (auto& entry : entries) {
      for (Credit& credit : entry.credits) fail_credit(credit);
    }
    for (Credit& credit : open_credits) fail_credit(credit);
    for (auto& [token, op] : inflight) {
      op.reply->failed = true;
      if (op.reply->fail_msg.empty()) op.reply->fail_msg = msg;
      TryFlushReplies(op.client);
    }
  }

  bool FlushBackend(Backend& b) {
    if (b.link->Flush(opts.max_write_queue_bytes, /*io=*/nullptr) !=
        Connection::Status::kOpen) {
      FailBackend(b, NowMs());
      return false;
    }
    UpdateQueuedGauge(b);
    return true;
  }

  void HandleBackendEvent(Backend& b, uint32_t events) {
    if (b.connecting) {
      if (events & (EPOLLERR | EPOLLHUP)) {
        FailBackend(b, NowMs());
        return;
      }
      if (events & EPOLLOUT) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(b.link->fd(), SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          FailBackend(b, NowMs());
          return;
        }
        loop.Modify(b.link->fd(), b.link->gen(), EPOLLIN);
        StartHandshake(b);
      }
      return;
    }
    // DispatchBackendFrame returns false once it failed the backend (the
    // link is gone: kStopped); every other non-open status fails it here.
    const Connection::Status status = b.link->OnEvents(
        events, opts.max_write_queue_bytes, /*io=*/nullptr,
        [&](const FrameView& frame) { return DispatchBackendFrame(b, frame); });
    if (status != Connection::Status::kOpen &&
        status != Connection::Status::kStopped) {
      FailBackend(b, NowMs());
    }
  }

  bool DispatchBackendFrame(Backend& b, const FrameView& frame) {
    switch (frame.type) {
      case FrameType::kIngestAck: {
        net::IngestAck ack;
        if (!net::ParseIngestAck(frame.payload, &ack)) break;
        // Strict FIFO ledger ack: wrong token or count fails the
        // connection closed before any credit is released — a mangled ack
        // stream can never double-ack a client.
        std::vector<Credit> credits;
        if (b.ledger.Ack(ack.token, ack.count, &credits) !=
            CreditLedger<Credit>::AckResult::kOk) {
          break;
        }
#if QF_METRICS
        ClusterMetrics::Get().ledger_depth.Add(-1);
#endif
        ++b.ingest_acked;
        if (barrier_armed && barrier_backend == b.idx &&
            b.ingest_acked >= barrier_target) {
          barrier_armed = false;
          barrier_promise->set_value(true);
        }
        for (Credit& credit : credits) {
          --credit.reply->outstanding;
          TryFlushReplies(credit.client);
        }
        return true;
      }
      case FrameType::kQueryResult: {
        net::QueryResult res;
        if (!net::ParseQueryResult(frame.payload, &res)) break;
        auto it = b.inflight.find(res.token);
        if (it == b.inflight.end()) break;
        SubOp op = std::move(it->second);
        b.inflight.erase(it);
        if (res.answers.size() != op.positions.size()) break;
        for (size_t i = 0; i < res.answers.size(); ++i) {
          op.reply->answers[op.positions[i]] = res.answers[i];
        }
        --op.reply->outstanding;
        TryFlushReplies(op.client);
        return true;
      }
      case FrameType::kSubscribe: {
        net::SubscribeRequest echo;
        if (!net::ParseSubscribe(frame.payload, &echo)) break;
        if (echo.token == b.subscribe_token && echo.enable) {
          b.state = BackendState::kReady;
          b.backoff_ms = opts.backend_backoff_initial_ms;
        }
        return true;
      }
      case FrameType::kControlResult: {
        net::ControlResult res;
        if (!net::ParseControlResult(frame.payload, &res)) break;
        auto it = b.inflight.find(res.token);
        if (it == b.inflight.end()) break;
        SubOp op = std::move(it->second);
        b.inflight.erase(it);
        AccumulateControl(op, res);
        TryFlushReplies(op.client);
        return true;
      }
      case FrameType::kAlert: {
        net::WireAlert alert;
        if (!net::ParseAlert(frame.payload, &alert)) break;
        // A backend numbers each connection's alerts gap-free, so any
        // other seq is a corrupt stream: fail closed and reconnect.
        if (alert.seq != b.alert_rx_seq) break;
        b.alert_rx_seq = alert.seq + 1;
        alert.reserved = b.idx;
        alerts.push_back(alert);
        return true;
      }
      case FrameType::kError:
        break;  // terminal server-side error: reconnect
      default:
        break;
    }
    FailBackend(b, NowMs());
    return false;
  }

  void AccumulateControl(SubOp& op, const net::ControlResult& res) {
    PendingReply& reply = *op.reply;
    --reply.outstanding;
    if (res.status != ControlStatus::kOk) {
      reply.status = ControlStatus::kRejected;
      return;
    }
    if (res.op == ControlOp::kStats || res.op == ControlOp::kMetrics) {
      // Both are QFMS snapshots; the rollup sums them series by series.
      obs::MetricsSnapshot snap;
      if (!net::ParseMetricsPayload(res.payload, &snap)) {
        reply.status = ControlStatus::kRejected;
        return;
      }
      obs::MergeSnapshotInto(snap, &reply.metrics);
    }
    // kDrain carries no payload; kOk from every backend is the answer.
  }

  // ======================================================================
  // Migration (DESIGN.md §16)

  void StartMigration(ClientConn* c, const net::ControlRequest& req) {
    net::MigrateRequest m;
    if (!net::ParseMigratePayload(req.op_payload, &m) ||
        m.slot >= topo.num_slots() ||
        m.target_backend >= topo.num_backends()) {
      QueueControlStatus(c, req.token, req.op, ControlStatus::kBadRequest);
      return;
    }
    const uint32_t donor = topo.OwnerOf(m.slot);
    if (donor == m.target_backend ||
        backends[donor].state != BackendState::kReady ||
        backends[m.target_backend].state != BackendState::kReady) {
      QueueControlStatus(c, req.token, req.op, ControlStatus::kRejected);
      return;
    }
    if (migration_active) {
      QueueControlStatus(c, req.token, req.op, ControlStatus::kRejected);
      return;
    }
    migration_active = true;
    // The previous worker's final command has already run (migration_active
    // was false), so this join returns promptly.
    if (migration_worker.joinable()) migration_worker.join();
    migrate_reply = std::make_shared<PendingReply>();
    migrate_reply->kind = PendingReply::kControlFan;
    migrate_reply->token = req.token;
    migrate_reply->op = ControlOp::kMigrate;
    migrate_reply->outstanding = 1;
    migrate_client = c->ref();
    c->state.replies.push_back(migrate_reply);
    const uint32_t slot = m.slot;
    const uint32_t target = m.target_backend;
    migration_worker = std::thread(
        [this, slot, donor, target] { MigrateWorker(slot, donor, target); });
  }

  /// Loop-side: fence the slot and arm the donor ack barrier. The future
  /// resolves true once every coalesced INGEST flushed to the donor before
  /// the fence has been acked (the open coalescing buffer is flushed first
  /// so it is under the barrier), false if the donor dropped or the loop
  /// is stopping. The slot stays fenced until FinishFence, so no
  /// post-barrier item can reach the donor.
  std::future<bool> FenceSlot(uint32_t slot, uint32_t donor) {
    auto prom = std::make_shared<std::promise<bool>>();
    std::future<bool> fut = prom->get_future();
    loop.Post([this, slot, donor, prom] {
      if (Stopping()) {
        prom->set_value(false);
        return;
      }
      fenced = true;
      fenced_slot = slot;
      Backend& b = backends[donor];
      if (b.state == BackendState::kReady) FlushCoalesce(b);
      if (b.state == BackendState::kReady &&
          b.ingest_acked < b.ingest_sent) {
        barrier_armed = true;
        barrier_backend = donor;
        barrier_target = b.ingest_sent;
        barrier_promise = prom;
      } else {
        prom->set_value(b.state == BackendState::kReady);
      }
    });
    return fut;
  }

  /// Loop-side: commit (flip ownership to `target`) or abort (keep the
  /// donor as owner), then replay the fence buffer — through the coalescer
  /// — to the current owner.
  std::future<bool> FinishFence(uint32_t slot, uint32_t target,
                                bool commit) {
    auto prom = std::make_shared<std::promise<bool>>();
    std::future<bool> fut = prom->get_future();
    loop.Post([this, slot, target, commit, prom] {
      if (Stopping()) {
        fenced = false;
        fence_buffer.clear();
        prom->set_value(false);
        return;
      }
      if (commit) topo.Flip(slot, target);
      fenced = false;
      const uint32_t owner = topo.OwnerOf(slot);
      Backend& b = backends[owner];
      auto buffered = std::move(fence_buffer);
      fence_buffer.clear();
      for (FencedBatch& batch : buffered) {
        ClientConn* c = clients.Find(batch.client);
        bool sent = false;
        if (c != nullptr && b.state == BackendState::kReady &&
            !batch.reply->failed) {
          ++ingest_epoch;  // one fresh credit epoch per replayed batch
          AppendToCoalesce(
              b, reinterpret_cast<const uint8_t*>(batch.items.data()),
              batch.items.size(), batch.reply, batch.client);
          sent = !batch.reply->failed;
        }
        // The fence pre-paid one outstanding count at buffer time; the
        // coalescer just charged per real credit, so return the prepaid.
        --batch.reply->outstanding;
        if (!sent && !batch.reply->failed) {
          batch.reply->failed = true;
          batch.reply->fail_msg = "fenced batch lost: owner unavailable";
        }
        TryFlushReplies(batch.client);
      }
      if (b.state == BackendState::kReady) FlushCoalesce(b);
      prom->set_value(true);
    });
    return fut;
  }

  void CompleteMigration(bool ok) {
    loop.Post([this, ok] {
      migrate_reply->status =
          ok ? ControlStatus::kOk : ControlStatus::kRejected;
      migrate_reply->outstanding = 0;
      TryFlushReplies(migrate_client);
      migrate_reply.reset();
      migration_active = false;
    });
  }

  /// Worker-thread procedure: checkpoint-ship, WAL catch-up, fence, final
  /// drain, activate, flip. Uses private blocking connections so the event
  /// loop never stalls on migration I/O; each loop-side step is posted to
  /// the loop and awaited through its future.
  void MigrateWorker(uint32_t slot, uint32_t donor, uint32_t target) {
    net::QfClient::Options copt;
    copt.max_frame_bytes = opts.max_frame_bytes;
    copt.connect_timeout_ms = opts.backend_connect_timeout_ms;
    copt.connect_attempts = 3;
    copt.backoff_initial_ms = opts.backend_backoff_initial_ms;
    copt.backoff_max_ms = opts.backend_backoff_max_ms;
    net::QfClient dc(copt), tc(copt);
    bool is_fenced = false;
    bool pinned = false;

    auto abort = [&] {
      if (pinned) {
        net::SegmentShipRequest rel;
        rel.after_seq = net::kSegmentShipRelease;
        net::SegmentShipResult junk;
        dc.SegmentShip(rel, &junk);  // best-effort unpin
      }
      if (is_fenced) FinishFence(slot, target, /*commit=*/false).get();
      CompleteMigration(false);
    };

    std::string host;
    uint16_t port = 0;
    if (!SplitHostPort(opts.backends[donor], &host, &port) ||
        !dc.ConnectWithRetry(host, port)) {
      return abort();
    }
    if (!SplitHostPort(opts.backends[target], &host, &port) ||
        !tc.ConnectWithRetry(host, port)) {
      return abort();
    }

    net::ShardExport exp;
    if (!dc.ShardExportFetch(slot, &exp)) return abort();
    pinned = exp.wal_enabled != 0;
    uint64_t after = exp.snap_seq;

    if (exp.wal_enabled) {
      // Durable donor: ship the snapshot now, replay the WAL tail behind
      // it, and only fence once a catch-up round comes back small — the
      // write pause is then bounded by one small round, not the full
      // shard history.
      net::ShardImport imp;
      imp.shard = slot;
      std::memcpy(imp.rng, exp.rng, sizeof(imp.rng));
      imp.blob = std::move(exp.blob);
      if (!tc.ShardImportPush(imp)) return abort();
      for (int round = 0; round < 100000; ++round) {
        net::SegmentShipRequest sreq;
        sreq.after_seq = after;
        sreq.shard = slot;
        sreq.max_items = opts.ship_batch_items;
        net::SegmentShipResult res;
        if (!dc.SegmentShip(sreq, &res)) return abort();
        if (!res.items.empty() && !tc.Ingest(res.items)) return abort();
        after = res.next_after;
        if (res.exhausted ||
            res.items.size() <
                static_cast<size_t>(opts.ship_cutover_items)) {
          break;
        }
      }
      is_fenced = true;  // a failed fence may still have fenced the slot
      if (!FenceSlot(slot, donor).get()) return abort();
      // Post-barrier, every coordinator-acked item is in the donor's WAL;
      // drain the remainder, in WAL order, into the recipient.
      while (true) {
        net::SegmentShipRequest sreq;
        sreq.after_seq = after;
        sreq.shard = slot;
        sreq.max_items = opts.ship_batch_items;
        net::SegmentShipResult res;
        if (!dc.SegmentShip(sreq, &res)) return abort();
        if (!res.items.empty() && !tc.Ingest(res.items)) return abort();
        after = res.next_after;
        if (res.exhausted) break;
      }
    } else {
      // Non-durable donor: no log to replay, so fence first — the export
      // then captures the complete shard history.
      is_fenced = true;
      if (!FenceSlot(slot, donor).get()) return abort();
      if (!dc.ShardExportFetch(slot, &exp)) return abort();
      net::ShardImport imp;
      imp.shard = slot;
      std::memcpy(imp.rng, exp.rng, sizeof(imp.rng));
      imp.blob = std::move(exp.blob);
      if (!tc.ShardImportPush(imp)) return abort();
    }

    if (!tc.ShardActivate(slot)) return abort();
    if (!FinishFence(slot, target, /*commit=*/true).get()) return abort();
    is_fenced = false;
    if (pinned) {
      net::SegmentShipRequest rel;
      rel.after_seq = net::kSegmentShipRelease;
      net::SegmentShipResult junk;
      dc.SegmentShip(rel, &junk);
    }
    CompleteMigration(true);
  }
};

// ===========================================================================

Coordinator::Coordinator(const CoordinatorOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Coordinator::~Coordinator() { Stop(); }

bool Coordinator::Start() { return impl_->Start(); }

void Coordinator::Stop() { impl_->Stop(); }

bool Coordinator::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

uint16_t Coordinator::port() const { return impl_->bound_port; }

const std::string& Coordinator::error() const { return impl_->error; }

}  // namespace qf::cluster
