// QfServer: non-blocking epoll TCP server exposing a ShardedQuantileFilter
// over the length-prefixed binary protocol in net/protocol.h (DESIGN.md
// §11, §13).
//
// Threading model — R reactors, N shard workers:
//
//   clients ──TCP──▶ reactor 0 ──┐
//   clients ──TCP──▶ reactor 1 ──┼─ R×N IngestPipeline channels ──▶ workers
//   clients ──TCP──▶ reactor R-1─┘      ▲ per-shard control slots
//                        ▲              └ per-shard alert rings (reactor 0)
//                        └ SO_REUSEPORT listener group (one socket each)
//
// Each reactor is one net::EventLoop (net/reactor.h: listen socket in the
// SO_REUSEPORT group, epoll, wake eventfd, Post() mailbox) plus the
// net::Connections it accepted — no fd is ever shared between reactor
// threads. Reactor r is pipeline producer r: INGEST frames are decoded on
// the reactor, keys are hashed to shards at decode time (PushBatchFrom's
// block-hashed scatter), and items land in the reactor's own per-shard
// arenas. With --reactors=1 this collapses to the classic single-dispatcher
// shape, whose per-shard bit-identity guarantee tests rely on.
//
// Global control (kDrain / kCheckpoint / kRestore / kShutdown) quiesces the
// reactor group: the handling reactor claims the coordinator slot, every
// peer flushes its producer and futex-parks, the coordinator fences the
// now-quiescent pipeline, runs the operation, and releases the group. The
// claim loop keeps servicing quiesce requests from a competing coordinator,
// so concurrent CONTROL frames on different reactors serialize instead of
// deadlocking. kQuery needs no quiesce: shard workers answer through their
// control slots regardless of which reactor posted them.
//
// Alert delivery is at-most-once: reactor 0 is the alert rings' single
// consumer; it delivers to local subscribers directly and Post()s each
// batch to the other reactors, keeping every socket write on its owner.
//
// Replies are append-only: handlers encode into the connection's iovec
// write queue. A recv() chunk's replies leave in one flush (earlier once
// the queue passes max_write_queue_bytes, the slow-consumer cap); alert
// fan-out, the group-commit ack release and SendError append first, then
// flush each touched connection once. Poisoned decoders close after one
// best-effort ERROR frame. Server-only socket settings (max_connections,
// so_sndbuf) apply in the accept callback.
//
// Linux-only (epoll + eventfd + SO_REUSEPORT).

#ifndef QUANTILEFILTER_NET_SERVER_H_
#define QUANTILEFILTER_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sharded_filter.h"
#include "durable/checkpoint.h"
#include "durable/log.h"
#include "durable/storage.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "parallel/pipeline.h"
#include "parallel/placement.h"

namespace qf::net {

class QfServer {
 public:
  using Sharded = ShardedQuantileFilter<>;
  using Pipeline = IngestPipeline<>;

  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read it back with port() after Start().
    uint16_t port = 0;

    /// Filter geometry (total memory, split across shards) and criteria.
    Sharded::Filter::Options filter;
    Criteria criteria{};
    int num_shards = 4;

    /// Reactor threads (SO_REUSEPORT listeners, one pipeline producer
    /// each). 1 = the classic single-event-loop server.
    int reactors = 1;
    /// Thread pinning + NUMA first-touch policy. Shard workers take cores
    /// [core_offset, core_offset + num_shards); reactors follow them.
    PlacementOptions placement;

    /// Pipeline shape.
    size_t batch_size = 32;
    size_t ring_batches = 1024;
    /// Per-shard alert-ring capacity feeding SUBSCRIBE streams.
    size_t alert_ring_records = 4096;

    /// Protocol/backpressure limits. max_frame_bytes also bounds CONTROL
    /// checkpoint replies: size it to at least the filter memory budget
    /// plus slack, or kCheckpoint answers kRejected rather than emit a
    /// frame no compliant decoder would accept.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Cap on keys in one QUERY frame (oversize → ERROR kBadPayload).
    /// Each QUERY costs one control-slot round trip per owning shard on
    /// the handling reactor, so this bounds how long a single frame can
    /// occupy it.
    size_t max_query_keys = 65536;
    size_t max_write_queue_bytes = 8u << 20;
    int max_connections = 1024;
    /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests shrink it
    /// so slow-consumer backpressure surfaces without megabytes of alerts.
    int so_sndbuf = 0;

    /// Durability (src/durable/, DESIGN.md §14). Off unless wal_dir is set
    /// or a Storage is injected. When on, Start() recovers the newest valid
    /// checkpoint + log tail (refusing to boot on corruption — fail
    /// closed), every INGEST batch is logged before its ack, and reactor 0
    /// writes full checkpoints on an item cadence.
    struct Durable {
      std::string wal_dir;  // FsStorage directory (created if missing)
      /// Test injection: use this Storage instead of wal_dir (non-owning;
      /// must outlive the server).
      durable::Storage* storage = nullptr;
      durable::FsyncMode fsync = durable::FsyncMode::kGroup;
      uint64_t segment_bytes = 4u << 20;
      /// Ingested items between background checkpoints (0 = only the final
      /// checkpoint written by a clean Stop()).
      uint64_t checkpoint_interval_items = 0;

      bool enabled() const { return !wal_dir.empty() || storage != nullptr; }
    };
    Durable durable;
  };

  explicit QfServer(const Options& options);
  ~QfServer();

  QfServer(const QfServer&) = delete;
  QfServer& operator=(const QfServer&) = delete;

  /// Binds the listener group, and spawns the reactor threads. Returns
  /// false (with error() set) if socket setup fails. Idempotent once
  /// started.
  bool Start();

  /// Requests shutdown (as if a CONTROL kShutdown arrived) and joins the
  /// reactor threads. Safe from any thread; idempotent.
  void Stop();

  /// Blocks until every reactor exits (a client's CONTROL kShutdown also
  /// stops the server).
  void Wait();

  uint16_t port() const { return port_; }
  int reactors() const { return num_reactors_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }

  /// Live server counters (the same snapshot CONTROL kStats serves).
  WireStats StatsSnapshot() const;

  /// Outcome of the durable recovery run by the last Start(). All zeros
  /// when the server runs without Options::durable.
  struct RecoveryInfo {
    bool durable = false;         // durability active for this run
    bool had_checkpoint = false;  // restored a checkpoint
    uint64_t checkpoint_id = 0;
    uint64_t replayed_records = 0;
    uint64_t replayed_items = 0;
    uint32_t segments_scanned = 0;
    uint32_t torn_truncations = 0;
    std::string warning;
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  /// The serving filter; read it only when the server is stopped.
  const Sharded& filter() const { return filter_; }

  /// Boot-time restore into the serving filter; only valid while the
  /// server is not running (live restores go through CONTROL kRestore).
  bool RestoreCheckpoint(const std::vector<uint8_t>& blob) {
    if (running()) return false;
    return filter_.RestoreState(blob);
  }

 private:
  struct Conn;

  /// One outstanding alert record en route to subscribers (the shard index
  /// is carried because ALERT frames expose it).
  struct DrainedAlert {
    int shard;
    Pipeline::AlertRecord rec;
  };

  /// An ingest ack held back until the WAL's group-commit fsync (fsync mode
  /// kGroup): identified by fd + generation so a connection closed (or the
  /// fd reused) before the flush drops its ack instead of misdelivering.
  /// The INGEST_ACK frame is encoded only at release, after the fsync.
  struct DeferredAck {
    int fd = -1;
    uint32_t gen = 0;
    uint64_t token = 0;
    uint32_t count = 0;
    uint64_t total_items = 0;
    /// MonotonicNanos() at WAL append (QF_METRICS builds; 0 otherwise) —
    /// the start of the qf_durable_sync_latency_ns / qf_stage_ack_ns spans.
    uint64_t append_ns = 0;
  };

  /// Per-reactor state, owned by its reactor thread. Other threads only
  /// Wake() or Post() to the loop.
  struct Reactor {
    int idx = 0;
    EventLoop loop;  // declared before conns: connections deregister on it
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    bool pushed = false;       // items staged since the last FlushFrom
    int shutdown_fd = -1;      // conn whose kShutdown ack must drain here
    std::vector<Item> scratch; // INGEST decode staging (reused)
    // Ingest acks awaiting the group-commit fsync (durable kGroup mode).
    std::vector<DeferredAck> deferred_acks;
  };

  static Sharded MakeFilter(const Options& options);
  void Loop(Reactor& rx);
  /// Accept callback: applies max_connections and so_sndbuf.
  void Accept(Reactor& rx, int fd);
  void Serve(Reactor& rx, Conn* conn, uint32_t events);
  // Frame handlers receive zero-copy payload views into the connection's
  // decoder buffer (FrameDecoder::NextView); the views die when the decoder
  // is next fed, so handlers must consume them before returning. INGEST is
  // the fast path: the payload is staged into the reactor's scratch items
  // and scattered via PushBatchFrom's block-hashed ShardFor — one hash per
  // item at decode time, no IngestRequest materialization.
  void HandleFrame(Reactor& rx, Conn* conn, const FrameView& frame);
  void HandleIngest(Reactor& rx, Conn* conn, const FrameView& frame);
  void HandleQuery(Reactor& rx, Conn* conn, const FrameView& frame);
  void HandleSubscribe(Reactor& rx, Conn* conn, const FrameView& frame);
  void HandleControl(Reactor& rx, Conn* conn, const FrameView& frame);
  /// Runs `fn` with every reactor quiesced (producers flushed, peers
  /// parked) and the pipeline fenced; the filter is quiescent inside fn.
  template <typename Fn>
  void WithGlobalQuiesce(Reactor& rx, Fn&& fn);
  /// Peer side of the quiesce protocol: if a coordinator requested a
  /// quiesce, flush this reactor's producer, ack, and park until released.
  void ServiceQuiesce(Reactor& rx);
  /// Reactor 0 only: drain the alert rings, deliver to local subscribers,
  /// Post() the batch to every peer reactor.
  void BroadcastAlerts(Reactor& rx);
  /// Deliver drained or posted alerts to this reactor's subscribers.
  void DeliverAlerts(Reactor& rx, const std::vector<DrainedAlert>& drained);
  /// The one write path: handlers append encoded replies to the
  /// connection's write queue, and this sends what the socket takes.
  /// Returns false if the connection was closed.
  bool Flush(Reactor& rx, Conn* conn);
  /// Closes the connection a status ends (counting a slow consumer).
  /// Returns false unless the connection is still open.
  bool Settle(Reactor& rx, Conn* conn, Connection::Status status);
  /// Durability (DESIGN.md §14). SetupDurable opens the storage, resolves
  /// checkpoints and scans the log (fail closed on corruption); Replay
  /// re-drives the recovered tail through producer slot 0 before the
  /// reactors spawn. FlushGroupCommit fsyncs the log and releases the
  /// reactor's deferred acks; MaybeCheckpoint runs the background
  /// checkpoint cadence on reactor 0; WriteFinalCheckpoint runs once after
  /// the pipeline stops on a clean shutdown.
  bool SetupDurable();
  bool ReplayRecoveredTail();
  void FlushGroupCommit(Reactor& rx);
  void MaybeCheckpoint(Reactor& rx);
  void WriteFinalCheckpoint();
  /// Writes a full checkpoint of `blob` + `rng` (captured together with
  /// the filter quiescent) covering the log up to `covered`, restarts the
  /// cadence, and retains log and checkpoints to it. Takes wal_mu_ itself,
  /// only for the log retention. False (bookkeeping untouched) if the
  /// write failed.
  bool AnchorFullCheckpoint(uint64_t covered,
                            const std::vector<uint8_t>& blob,
                            const std::vector<durable::RngState>& rng);
  void SendError(Reactor& rx, Conn* conn, ErrorCode code,
                 const std::string& message);
  void CloseConn(Reactor& rx, Conn* conn, bool slow);

  Options options_;
  Sharded filter_;
  Pipeline pipeline_;
  const int num_reactors_;

  uint16_t port_ = 0;
  std::string error_;
  std::vector<std::unique_ptr<Reactor>> reactors_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};  // kShutdown acked, reactors draining
  /// Reactors still running their loops; quiesce coordination only waits
  /// for live peers (an exiting reactor flushes its producer first, which
  /// is all a fence needs from it).
  std::atomic<int> active_reactors_{0};
  std::atomic<int> exited_reactors_{0};

  // Quiesce protocol state (see WithGlobalQuiesce).
  std::atomic<int> control_owner_{-1};  // coordinating reactor, -1 = free
  /// Quiesce generation (futex word): odd = quiesce in progress. Peers ack
  /// once per generation and wait for the word to change, so back-to-back
  /// quiesces cannot swallow an ack (see ServiceQuiesce).
  std::atomic<uint32_t> quiesce_word_{0};
  std::atomic<int> quiesce_acks_{0};

  std::atomic<int> subscribers_{0};  // across all reactors

  // Shared counters mirrored into WireStats (atomic: multi-reactor
  // writers, StatsSnapshot readers).
  std::atomic<uint64_t> items_ingested_{0};
  std::atomic<uint64_t> alerts_streamed_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> slow_disconnects_{0};
  std::atomic<uint64_t> active_connections_{0};

  // --- Durability state (engaged iff options_.durable.enabled()) ---
  bool durable_enabled_ = false;
  std::unique_ptr<durable::FsStorage> owned_storage_;
  durable::Storage* storage_ = nullptr;
  std::unique_ptr<durable::WalWriter> wal_;
  std::unique_ptr<durable::CheckpointStore> checkpoints_;
  /// Serializes WAL appends/syncs/retention across reactors (WalWriter is
  /// single-writer). Held briefly per INGEST frame.
  std::mutex wal_mu_;
  /// Last wal_->segments_written() published to the qf_durable_* metrics
  /// (guarded by wal_mu_; rotations happen inside Append).
  uint64_t wal_segments_observed_ = 0;
  RecoveryInfo recovery_;
  std::vector<Item> replay_tail_;  // recovered log tail until replayed
  /// Segment-ship retention floor (DESIGN.md §16): while a migration is
  /// catching up from this server's WAL, checkpoints may only Retain() up
  /// to the last shipped seq — otherwise the cadence could reap records the
  /// coordinator still needs. ~0 = no active ship (no pin). Set by
  /// kShardExport (snap_seq), ratcheted by each kSegmentShip, cleared by a
  /// kSegmentShipRelease request or a timeline reset.
  std::atomic<uint64_t> ship_floor_{~0ull};

  // Checkpoint bookkeeping. Written by one thread at a time: inside a
  // global quiesce, by reactor 0 between quiesces (a control op's quiesce
  // waits for reactor 0 to come back to its loop), or after the pipeline
  // stops — so plain fields suffice.
  uint64_t next_checkpoint_id_ = 1;
  uint64_t items_at_last_checkpoint_ = 0;
  bool final_checkpoint_written_ = false;

  // Durable counters mirrored into WireStats + qf_durable_* metrics.
  std::atomic<uint64_t> wal_records_appended_{0};
  std::atomic<uint64_t> wal_records_replayed_{0};
  std::atomic<uint64_t> wal_torn_truncations_{0};
  std::atomic<uint64_t> wal_checkpoints_written_{0};
};

}  // namespace qf::net

#endif  // QUANTILEFILTER_NET_SERVER_H_
