#include "net/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "durable/recovery.h"
#include "obs/instrument.h"
#include "parallel/park.h"

// Unconditional: the CONTROL kMetrics handler snapshots the registry even
// in QF_METRICS=0 builds (the registry is just near-empty there).
#include "common/time.h"
#include "obs/registry.h"

namespace qf::net {

namespace {

/// CONTROL_RESULT payload prefix: token(8) + op(1) + status(1).
constexpr size_t kControlResultHeader = 10;

#if QF_METRICS
/// Process-wide serving-layer metrics (names per DESIGN.md §10/§11/§15):
/// socket traffic, per-frame-type counters (a `{type="..."}` label) and
/// latency histograms, shared by every server in the process. Per-server
/// counts live in QfServer::OwnSeries() instead.
struct NetMetrics {
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Counter& read_calls;
  obs::Counter& write_calls;
  obs::Counter& protocol_errors;
  obs::Gauge& alert_delivery_lag_ns;
  obs::Histogram& ingest_frame_ns;
  obs::Histogram& query_frame_ns;
  obs::Histogram& control_frame_ns;
  /// WAL append to durable (group-commit sync complete), per stamped
  /// deferred ack (1 in StageFrameSampling::kEvery INGEST frames).
  obs::Histogram& durable_sync_latency_ns;
  obs::Counter* frames_by_type[kMaxFrameType + 1];

  static NetMetrics& Get() {
    static NetMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      auto* nm = new NetMetrics{
          r.GetCounter("qf_net_bytes_read_total", "bytes read from sockets"),
          r.GetCounter("qf_net_bytes_written_total",
                       "bytes written to sockets"),
          r.GetCounter("qf_net_read_calls_total",
                       "recv() calls on client sockets"),
          r.GetCounter("qf_net_write_calls_total",
                       "send() calls on client sockets"),
          r.GetCounter("qf_net_protocol_errors_total",
                       "connections poisoned by malformed frames"),
          r.GetGauge("qf_net_alert_delivery_lag_ns",
                     "latest detection-to-subscriber-write lag"),
          r.GetHistogram("qf_net_ingest_frame_ns",
                         "INGEST frame handling latency (ns), 1 in 16 "
                         "frames"),
          r.GetHistogram("qf_net_query_frame_ns",
                         "QUERY frame handling latency (ns)"),
          r.GetHistogram("qf_net_control_frame_ns",
                         "CONTROL frame handling latency (ns)"),
          r.GetHistogram("qf_durable_sync_latency_ns",
                         "WAL append to durable (group-commit sync "
                         "complete), per deferred ack of 1 in 16 frames",
                         "ns"),
          {},
      };
      nm->frames_by_type[0] = nullptr;
      for (uint8_t t = 1; t <= kMaxFrameType; ++t) {
        std::string name = "qf_net_frames_total{type=\"";
        name += FrameTypeName(static_cast<FrameType>(t));
        name += "\"}";
        nm->frames_by_type[t] =
            &r.GetCounter(name, "frames received, by type");
      }
      return nm;
    }();
    return *m;
  }
};

#endif  // QF_METRICS

/// Adds one loop turn's socket traffic to the qf_net_* counters.
void RecordIo([[maybe_unused]] const IoStats& io) {
  QF_OBS({
    NetMetrics& m = NetMetrics::Get();
    if (io.bytes_read != 0) m.bytes_read.Add(io.bytes_read);
    if (io.read_calls != 0) m.read_calls.Add(io.read_calls);
    if (io.protocol_errors != 0) m.protocol_errors.Add(io.protocol_errors);
    if (io.write_calls != 0) {
      m.write_calls.Add(io.write_calls);
      m.bytes_written.Add(io.bytes_written);
    }
  });
}

}  // namespace

QfServer::Sharded QfServer::MakeFilter(const Options& options) {
  const int shards = options.num_shards < 1 ? 1 : options.num_shards;
  if (options.placement.pin_threads && options.placement.first_touch_arenas) {
    // Construct each shard's filter on a thread pinned where the shard's
    // pipeline worker will run, so first-touch places its candidate arrays
    // and sketch counters on that worker's NUMA node.
    const PlacementOptions placement = options.placement;
    return Sharded(options.filter, options.criteria, shards,
                   [placement](int s) {
                     PinThreadToCore(PlacementCore(placement, s));
                   });
  }
  return Sharded(options.filter, options.criteria, shards);
}

QfServer::QfServer(const Options& options)
    : options_(options),
      filter_(MakeFilter(options)),
      pipeline_(filter_,
                [&options] {
                  Pipeline::Options p;
                  p.ring_batches = options.ring_batches;
                  p.alert_ring_records = options.alert_ring_records;
                  p.num_producers = options.reactors < 1 ? 1 : options.reactors;
                  p.placement = options.placement;
                  return p;
                }()),
      num_reactors_(options.reactors < 1 ? 1 : options.reactors) {}

QfServer::~QfServer() { Stop(); }

bool QfServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;

  // Durable recovery runs first: a corrupt log or checkpoint must
  // refuse to boot (fail closed) before any socket accepts traffic.
  if (options_.durable.enabled() && !SetupDurable()) return false;

  reactors_.clear();
  for (int r = 0; r < num_reactors_; ++r) {
    auto rx = std::make_unique<Reactor>(r, plane_, options_);
    // Reactor 0 may bind port 0 (ephemeral); later reactors join the
    // SO_REUSEPORT group on the port it was actually assigned.
    if (!rx->loop.Open(options_.host, r == 0 ? options_.port : port_,
                       num_reactors_ > 1, &error_)) {
      return false;
    }
    port_ = rx->loop.port();
    reactors_.push_back(std::move(rx));
  }

  stop_requested_.store(false, std::memory_order_relaxed);
  plane_.stopping.store(false, std::memory_order_relaxed);
  control_owner_.store(-1, std::memory_order_relaxed);
  quiesce_word_.store(0, std::memory_order_relaxed);
  quiesce_acks_.store(0, std::memory_order_relaxed);
  exited_reactors_.store(0, std::memory_order_relaxed);
  active_reactors_.store(num_reactors_, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);

  // Workers spawn (and pre-fault their arenas) before any reactor can push.
  pipeline_.Start();
  // Re-drive the recovered log tail through producer slot 0 on this thread,
  // before reactor 0 exists to contend for the slot. The fence inside
  // ReplayRecoveredTail releases the slot and waits until every replayed
  // item is applied, so reactors start from exactly the pre-crash state.
  if (durable_enabled_ && !ReplayRecoveredTail()) {
    pipeline_.Stop();
    running_.store(false, std::memory_order_release);
    return false;
  }
  for (auto& rx : reactors_) {
    Reactor* p = rx.get();
    p->thread = std::thread([this, p] { Loop(*p); });
  }
  return true;
}

void QfServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  for (auto& rx : reactors_) rx->loop.Wake();
  Wait();
}

void QfServer::Wait() {
  for (auto& rx : reactors_) {
    if (rx->thread.joinable()) rx->thread.join();
  }
}

obs::MetricsSnapshot QfServer::OwnSeries() const {
  const Pipeline::Totals t = pipeline_.totals();
  WireStats s;
  s.items_ingested = items_ingested_.load(std::memory_order_relaxed);
  s.items_processed = t.items_processed;
  s.reports = t.reports;
  s.alerts_streamed = alerts_streamed_.load(std::memory_order_relaxed);
  s.alerts_dropped = t.alerts_dropped;
  plane_.Fill(&s);
  s.wal_records_appended =
      wal_records_appended_.load(std::memory_order_relaxed);
  s.wal_records_replayed =
      wal_records_replayed_.load(std::memory_order_relaxed);
  s.wal_torn_truncations =
      wal_torn_truncations_.load(std::memory_order_relaxed);
  s.wal_checkpoints_written =
      wal_checkpoints_written_.load(std::memory_order_relaxed);
  if (wal_) {
    std::lock_guard<std::mutex> lock(wal_mu_);
    s.wal_segments_written = wal_->segments_written();
  }
  return WireStatsToMetrics(s);
}

obs::MetricsSnapshot QfServer::Metrics() const {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  obs::MergeSnapshotInto(OwnSeries(), &snap);  // no name overlaps
  return snap;
}

WireStats QfServer::StatsSnapshot() const {
  WireStats s;
  WireStatsFromMetrics(OwnSeries(), &s, nullptr);  // carries every field
  return s;
}

bool QfServer::SetupDurable() {
  durable_enabled_ = true;
  if (options_.durable.storage != nullptr) {
    storage_ = options_.durable.storage;
  } else {
    owned_storage_ =
        std::make_unique<durable::FsStorage>(options_.durable.wal_dir);
    if (!owned_storage_->ok()) {
      error_ = "wal storage: " + owned_storage_->error();
      return false;
    }
    storage_ = owned_storage_.get();
  }
  checkpoints_ = std::make_unique<durable::CheckpointStore>(storage_);

  durable::RecoverOptions ropts;
  ropts.repair_torn_tail = true;
  durable::Recovered rec = durable::Recover(*storage_, ropts);
  if (!rec.ok) {
    error_ = "durable recovery refused to boot (fail closed): " + rec.error;
    return false;
  }
  std::string apply_error;
  if (!durable::ApplyCheckpoint(rec, &filter_, &apply_error)) {
    error_ = "durable recovery refused to boot (fail closed): " + apply_error;
    return false;
  }

  recovery_ = RecoveryInfo{};
  recovery_.durable = true;
  recovery_.had_checkpoint = rec.had_checkpoint;
  recovery_.checkpoint_id = rec.checkpoint_id;
  recovery_.replayed_records = rec.tail_records;
  recovery_.replayed_items = rec.tail.size();
  recovery_.segments_scanned = rec.segments_scanned;
  recovery_.torn_truncations = rec.torn_truncations;
  recovery_.warning = rec.warning;
  replay_tail_ = std::move(rec.tail);

  next_checkpoint_id_ = rec.checkpoint_id + 1;
  items_at_last_checkpoint_ = 0;
  final_checkpoint_written_ = false;

  wal_records_appended_.store(0, std::memory_order_relaxed);
  wal_records_replayed_.store(0, std::memory_order_relaxed);
  wal_torn_truncations_.store(rec.torn_truncations,
                              std::memory_order_relaxed);
  wal_checkpoints_written_.store(0, std::memory_order_relaxed);

  durable::WalOptions wopts;
  wopts.segment_bytes = options_.durable.segment_bytes;
  wopts.fsync = options_.durable.fsync;
  wal_ = std::make_unique<durable::WalWriter>(storage_, wopts);
  if (!wal_->Init(rec.wal_gen, rec.next_seq)) {
    error_ = "wal writer init failed";
    return false;
  }
  return true;
}

bool QfServer::ReplayRecoveredTail() {
  if (!replay_tail_.empty()) {
    pipeline_.PushBatchFrom(0, replay_tail_);
    // Conservation (ingested == processed after a drain) must hold across
    // the restart, so replayed items count as ingested.
    items_ingested_.fetch_add(replay_tail_.size(),
                              std::memory_order_relaxed);
  }
  // Flush + release producer slot 0 and wait until every worker applied
  // its replayed items; reactors then observe the recovered state.
  pipeline_.FenceFrom(0);
  // Reports re-detected during replay were already delivered (at most
  // once) by the crashed process; discard their alert records so a
  // post-restart subscriber never sees a pre-crash duplicate. Runs before
  // the reactors spawn, so this thread is the rings' only consumer.
  pipeline_.DrainAlerts([](int, const Pipeline::AlertRecord&) {});
  wal_records_replayed_.store(recovery_.replayed_records,
                              std::memory_order_relaxed);
  replay_tail_.clear();
  replay_tail_.shrink_to_fit();
  return true;
}

void QfServer::FlushGroupCommit(Reactor& rx) {
  if (rx.deferred_acks.empty()) return;
#if QF_METRICS
  const uint64_t sync_t0 = MonotonicNanos();
#endif
  bool synced;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    synced = wal_->Sync();
  }
#if QF_METRICS
  const uint64_t sync_t1 = MonotonicNanos();
  {
    obs::StageMetrics& stm = obs::StageMetrics::Get();
    stm.wal_sync_ns.Record(sync_t1 - sync_t0);
    obs::TraceRing& tr = obs::TraceRing::Global();
    if (tr.enabled() && obs::SampleHit<obs::StageTraceSampling>()) {
      tr.Emit(obs::TraceEvent::kWalSync,
              static_cast<uint16_t>(obs::kReactorTidBase + rx.idx), sync_t0,
              sync_t1 - sync_t0, rx.deferred_acks.size());
    }
  }
  uint64_t ack_bytes = 0;
  uint64_t acked_ns = 0;
#endif
  // Encode every released ack first, then flush each touched connection
  // once. A connection already sent an ERROR gets no ack after it.
  std::vector<Client*> touched;
  for (const DeferredAck& ack : rx.deferred_acks) {
    Client* c = rx.clients.Find(ack.client);
    if (c == nullptr || c->io.closing()) continue;
    if (!synced) {
      // The durability promise behind these acks failed; closing the
      // connection (instead of acking anyway) tells the client its
      // unacked window may not survive a crash.
      rx.clients.Close(c, /*slow=*/false);
      continue;
    }
    WriteQueue& out = c->io.out();
    [[maybe_unused]] const size_t queued = out.bytes();
    out.Encode(EncodeIngestAckTo, ack.token, ack.count, ack.total_items);
    touched.push_back(c);
    QF_OBS({
      ack_bytes += out.bytes() - queued;
      if (ack.append_ns != 0) {
        // Two views of the same deferral: sync latency ends when the data
        // is durable, ack latency when the ack bytes hit the write queue.
        // One clock read per flush serves every stamped ack in it.
        if (acked_ns == 0) acked_ns = MonotonicNanos();
        NetMetrics::Get().durable_sync_latency_ns.Record(sync_t1 -
                                                         ack.append_ns);
        obs::StageMetrics::Get().ack_ns.Record(acked_ns - ack.append_ns);
      }
    });
  }
  rx.deferred_acks.clear();
  // A flush can close only its own client, so the others stay valid.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (Client* c : touched) rx.clients.Flush(c);
  QF_OBS({
    obs::TraceRing& tr = obs::TraceRing::Global();
    if (tr.enabled() && obs::SampleHit<obs::StageTraceSampling>()) {
      const uint64_t now = MonotonicNanos();
      tr.Emit(obs::TraceEvent::kAckFlush,
              static_cast<uint16_t>(obs::kReactorTidBase + rx.idx), sync_t1,
              now - sync_t1, ack_bytes);
    }
  });
}

void QfServer::MaybeCheckpoint(Reactor& rx) {
  const uint64_t interval = options_.durable.checkpoint_interval_items;
  if (interval == 0 ||
      items_ingested_.load(std::memory_order_relaxed) -
              items_at_last_checkpoint_ <
          interval) {
    return;
  }
  // Serialize under the global quiesce (shards quiescent, WAL position
  // exact); write + fsync the checkpoint file OUTSIDE it, so the slow part
  // never stalls the reactor group.
  uint64_t covered = 0;
  std::vector<uint8_t> blob;
  std::vector<durable::RngState> rng;
  WithGlobalQuiesce(rx, [&] {
    {
      std::lock_guard<std::mutex> lock(wal_mu_);
      covered = wal_->next_seq() - 1;
    }
    blob = filter_.SerializeState();
    rng = durable::GatherRngStates(filter_);
  });
  // On failure the cadence stays due: the next loop iteration retries.
  AnchorFullCheckpoint(covered, blob, rng);
}

void QfServer::WriteFinalCheckpoint() {
  // Runs on the last exiting reactor after pipeline_.Stop(): the filter is
  // quiescent and no other thread touches the WAL.
  if (!durable_enabled_ || final_checkpoint_written_) return;
  final_checkpoint_written_ = true;
  // On failure the log still covers everything; next boot replays it.
  AnchorFullCheckpoint(wal_->next_seq() - 1, filter_.SerializeState(),
                       durable::GatherRngStates(filter_));
}

bool QfServer::AnchorFullCheckpoint(
    uint64_t covered, const std::vector<uint8_t>& blob,
    const std::vector<durable::RngState>& rng) {
  const uint64_t id = next_checkpoint_id_;
  if (!checkpoints_->Write(id, wal_->wal_gen(), covered, blob, rng)) {
    return false;
  }
  next_checkpoint_id_ = id + 1;
  items_at_last_checkpoint_ = items_ingested_.load(std::memory_order_relaxed);
  wal_checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_->Retain(
        std::min(covered, ship_floor_.load(std::memory_order_acquire)));
  }
  checkpoints_->Retain(id);
  return true;
}

void QfServer::ServiceQuiesce(Reactor& rx) {
  // The word is a generation counter: odd = a quiesce is in progress. A
  // peer acks ONCE per generation and then waits for the word to CHANGE —
  // not for a fixed value — so a peer waking late from generation g cannot
  // mistake generation g+2 for its own round and park without acking
  // (back-to-back kDrain frames hit exactly that interleaving).
  const uint32_t gen = quiesce_word_.load(std::memory_order_acquire);
  if ((gen & 1) == 0) return;
  // Ship everything this reactor has staged, ack, and park until the
  // coordinator finishes. Parking (not spinning) matters — on a busy box
  // the coordinator needs the core to run the fence and the checkpoint.
  pipeline_.FlushFrom(rx.idx);
  quiesce_acks_.fetch_add(1, std::memory_order_acq_rel);
  while (quiesce_word_.load(std::memory_order_acquire) == gen) {
    ParkingSpot::WaitWhile(&quiesce_word_, gen);
  }
}

template <typename Fn>
void QfServer::WithGlobalQuiesce(Reactor& rx, Fn&& fn) {
  // Claim the coordinator slot; while waiting, keep answering a competing
  // coordinator's quiesce so two concurrent CONTROL frames on different
  // reactors serialize instead of deadlocking.
  int expected = -1;
  while (!control_owner_.compare_exchange_weak(expected, rx.idx,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
    expected = -1;
    ServiceQuiesce(rx);
    std::this_thread::yield();
  }
  quiesce_acks_.store(0, std::memory_order_relaxed);
  // Even → odd: opens generation `gen`. Only the coordinator (serialized
  // by control_owner_) ever flips the parity.
  quiesce_word_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& peer : reactors_) {
    if (peer->idx != rx.idx) peer->loop.Wake();
  }
  // Wait for every LIVE peer (an exiting reactor flushes its producer on
  // the way out, which is all the fence needs from it; waiting on exited
  // peers would hang a drain that races a shutdown).
  AdaptiveBackoff backoff;
  while (quiesce_acks_.load(std::memory_order_acquire) <
         active_reactors_.load(std::memory_order_acquire) - 1) {
    if (backoff.ShouldPark()) std::this_thread::yield();
  }
  // Every producer is now flushed and parked (or exited); a fence from
  // this reactor's slot drains all R×N rings.
  pipeline_.FenceFrom(rx.idx);
  fn();
  // Odd → even: closes the generation; parked peers see the word change.
  quiesce_word_.fetch_add(1, std::memory_order_acq_rel);
  ParkingSpot::WakeAll(&quiesce_word_);
  control_owner_.store(-1, std::memory_order_release);
}

void QfServer::Loop(Reactor& rx) {
  if (options_.placement.pin_threads) {
    // Shard workers occupy cores [offset, offset + shards); reactors take
    // the next cores (wrapping modulo the online count).
    PinThreadToCore(
        PlacementCore(options_.placement, filter_.num_shards() + rx.idx));
  }

  while (true) {
    if (stop_requested_.load(std::memory_order_acquire)) break;
    ServiceQuiesce(rx);
    // Alert batches BroadcastAlerts posted for this reactor's subscribers.
    rx.loop.RunPosted();
    // kShutdown acked: the acking reactor leaves once the ack has drained
    // (or the client vanished); every other reactor leaves at once — the
    // fence already ran under the shutdown quiesce.
    if (rx.clients.ShutdownDrained()) break;

    // Short timeout while alert fan-out is pending; otherwise sleep long —
    // wakes arrive via the eventfd. Only reactor 0 polls the alert rings,
    // so a subscriber anywhere keeps reactor 0 (and only reactor 0) hot.
    const bool alert_duty =
        rx.idx == 0 && plane_.subscribers.load(std::memory_order_relaxed) > 0;
    const int timeout_ms =
        (alert_duty || rx.pushed ||
         plane_.stopping.load(std::memory_order_relaxed))
            ? 1
            : 200;
    const bool polled = rx.loop.Poll(
        timeout_ms,
        [&](int fd, uint32_t gen, uint32_t events) {
          const bool served = rx.clients.Serve(
              fd, gen, events, [&](Client* c, const FrameView& frame) {
                HandleFrame(rx, c, frame);
              });
          // INGEST may have staged items.
          if (served && (events & EPOLLIN)) rx.pushed = true;
        },
        [&](int fd) {
          Client* c = rx.clients.Accept(fd);
          if (c != nullptr && options_.so_sndbuf > 0) {
            setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                       sizeof(options_.so_sndbuf));
          }
        });
    if (!polled) break;

    // Ship partial batches so staged items never wait on a quiet socket.
    if (rx.pushed) {
      pipeline_.FlushFrom(rx.idx);
      rx.pushed = false;
    }
    if (durable_enabled_) {
      // Group commit: one fsync covers every ingest ack deferred during
      // this loop iteration. Checkpoint duty lives on reactor 0 so the
      // cadence is single-threaded.
      FlushGroupCommit(rx);
      if (rx.idx == 0 && !plane_.stopping.load(std::memory_order_relaxed)) {
        MaybeCheckpoint(rx);
      }
    }
    if (rx.idx == 0) BroadcastAlerts(rx);
    RecordIo(rx.io);
    rx.io = {};
  }

  // Ship anything still staged and release this reactor's producer slot,
  // THEN leave the live set — a coordinator mid-quiesce stops waiting for
  // this reactor only after its flush, keeping fences exact.
  pipeline_.FlushFrom(rx.idx);
  if (durable_enabled_) FlushGroupCommit(rx);
  RecordIo(rx.io);
  active_reactors_.fetch_sub(1, std::memory_order_acq_rel);
  rx.clients.CloseAll();

  // Last reactor out joins the shard workers (all producer slots are
  // released by now) and marks the server stopped.
  if (exited_reactors_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      num_reactors_) {
    pipeline_.Stop();
    WriteFinalCheckpoint();
    running_.store(false, std::memory_order_release);
  }
}

void QfServer::HandleFrame(Reactor& rx, Client* conn, const FrameView& frame) {
#if QF_METRICS
  const uint8_t type_idx = static_cast<uint8_t>(frame.type);
  if (type_idx >= 1 && type_idx <= kMaxFrameType) {
    NetMetrics::Get().frames_by_type[type_idx]->Add(1);
  }
#endif
  // Per-connection response order must match request order. Deferred ingest
  // acks (group commit) would otherwise be overtaken by the immediate reply
  // to a QUERY/CONTROL that arrived in the same read, so sync-and-release
  // them before handling any non-ingest frame.
  if (durable_enabled_ && frame.type != FrameType::kIngest &&
      !rx.deferred_acks.empty()) {
    const ClientRef ref = conn->ref();
    FlushGroupCommit(rx);
    // A failed sync or a slow-consumer flush may have closed this conn.
    if (rx.clients.Find(ref) == nullptr) return;
  }
  if (rx.clients.RefuseIfStopping(conn)) return;
  switch (frame.type) {
    case FrameType::kIngest:
      HandleIngest(rx, conn, frame);
      return;
    case FrameType::kQuery:
      HandleQuery(rx, conn, frame);
      return;
    case FrameType::kSubscribe: {
      std::vector<uint8_t> echo;
      if (rx.clients.Subscribe(conn, frame, &echo)) {
        conn->io.out().PushBlock(std::move(echo));
      }
      return;
    }
    case FrameType::kControl:
      HandleControl(rx, conn, frame);
      return;
    default:
      // Server-to-client frame types are not valid requests.
      rx.clients.SendError(conn, ErrorCode::kUnsupportedType,
                           std::string("unexpected frame type: ") +
                               FrameTypeName(frame.type));
      return;
  }
}

void QfServer::HandleIngest(Reactor& rx, Client* conn, const FrameView& frame) {
#if QF_METRICS
  // Stage timing (DESIGN.md §15.2) samples 1 in StageFrameSampling::kEvery
  // frames: a 32-item frame cannot amortize four clock reads and three
  // shared-atomic Records, and this thread limits the serving path. Only a
  // timed or traced frame reads the clock; every counter stays exact.
  const bool timed = obs::SampleHit<obs::StageFrameSampling>();
  obs::TraceRing& tr = obs::TraceRing::Global();
  const bool traced =
      tr.enabled() && obs::SampleHit<obs::StageTraceSampling>();
  const bool clocked = timed || traced;
  const uint64_t t0 = clocked ? MonotonicNanos() : 0;
#endif
  // Wire-to-shard fast path: stage the (possibly unaligned) wire items into
  // the reactor's scratch buffer, then scatter them through PushBatchFrom —
  // ShardFor is computed once per item at decode time, in the pipeline's
  // block-hashed loop, and items land directly in this reactor's per-shard
  // arenas. Same exact-size contract as ParseIngest.
  const std::span<const uint8_t> payload = frame.payload;
  uint64_t token = 0;
  uint32_t count = 0;
  if (payload.size() < 12) {
    rx.clients.SendError(conn, ErrorCode::kBadPayload,
                         "malformed INGEST payload");
    return;
  }
  std::memcpy(&token, payload.data(), 8);
  std::memcpy(&count, payload.data() + 8, 4);
  if (payload.size() - 12 != static_cast<size_t>(count) * sizeof(Item)) {
    rx.clients.SendError(conn, ErrorCode::kBadPayload,
                         "malformed INGEST payload");
    return;
  }
  rx.scratch.resize(count);
#if QF_METRICS
  uint64_t t_decode = t0, t_push = t0;
#endif
  if (count > 0) {
    std::memcpy(rx.scratch.data(), payload.data() + 12,
                static_cast<size_t>(count) * sizeof(Item));
    QF_OBS(if (clocked) t_decode = MonotonicNanos());
    pipeline_.PushBatchFrom(rx.idx, rx.scratch);
    QF_OBS(if (clocked) t_push = MonotonicNanos());
  }
  QF_OBS({
    // Stage spans: decode = header parse + payload staging, arena push =
    // the scatter through PushBatchFrom.
    if (timed) {
      obs::StageMetrics& stm = obs::StageMetrics::Get();
      stm.decode_ns.Record(t_decode - t0);
      stm.arena_push_ns.Record(t_push - t_decode);
    }
    if (traced) {
      tr.Emit(obs::TraceEvent::kFrameDecode,
              static_cast<uint16_t>(obs::kReactorTidBase + rx.idx), t0,
              t_push - t0, count);
    }
  });
  const uint64_t total_items =
      items_ingested_.fetch_add(count, std::memory_order_relaxed) + count;
  if (durable_enabled_) {
    // Log-before-ack: the batch (even an empty one — it consumes a seq, so
    // ack order stays aligned with log order) is appended to the WAL before
    // the client can observe the ack. In kGroup mode the ack is deferred to
    // the fsync at the bottom of this loop iteration (group commit); kNone
    // promises SIGKILL-durability only.
    bool appended;
    {
      std::lock_guard<std::mutex> lock(wal_mu_);
      appended = wal_->Append(
          std::span<const Item>(rx.scratch.data(), count), nullptr);
    }
    if (!appended) {
      // The items are in the pipeline but not in the log; without an ack
      // the acked-prefix contract still holds. Surface the storage failure
      // instead of pretending the batch is durable.
      rx.clients.SendError(conn, ErrorCode::kInternal, "wal append failed");
      return;
    }
    wal_records_appended_.fetch_add(1, std::memory_order_relaxed);
    if (options_.durable.fsync == durable::FsyncMode::kGroup) {
      DeferredAck deferred{conn->ref(), token, count, total_items, 0};
      // Only a timed frame stamps its ack, so the ack and sync-latency
      // histograms sample the same frames as decode and arena push.
      QF_OBS(if (timed) {
        deferred.append_ns = MonotonicNanos();
        NetMetrics::Get().ingest_frame_ns.Record(deferred.append_ns - t0);
      });
      rx.deferred_acks.push_back(deferred);
      return;
    }
  }
  conn->io.out().Encode(EncodeIngestAckTo, token, count, total_items);
  QF_OBS(if (timed) {
    NetMetrics::Get().ingest_frame_ns.Record(MonotonicNanos() - t0);
  });
}

void QfServer::HandleQuery(Reactor& rx, Client* conn, const FrameView& frame) {
#if QF_METRICS
  const uint64_t t0 = MonotonicNanos();
#endif
  QueryRequest req;
  if (!ParseQuery(frame.payload, &req)) {
    rx.clients.SendError(conn, ErrorCode::kBadPayload,
                         "malformed QUERY payload");
    return;
  }
  if (req.keys.size() > options_.max_query_keys) {
    // Each QUERY blocks its reactor for the control-slot round trips; an
    // uncapped frame (~8M keys at the default frame cap) would stall every
    // connection on this reactor for seconds.
    rx.clients.SendError(
        conn, ErrorCode::kBadPayload,
        "QUERY carries " + std::to_string(req.keys.size()) + " keys, cap is " +
            std::to_string(options_.max_query_keys));
    return;
  }
  // Executed on the owning shards' worker threads via their control slots
  // — one round trip per shard, answered concurrently, not one per key.
  // Any reactor may post; the pipeline's control mutex serializes. Answers
  // reflect each worker's current ring position (CONTROL kDrain first for
  // read-your-writes).
  std::vector<Pipeline::QueryAnswer> grouped(req.keys.size());
  pipeline_.QueryBatch(req.keys, grouped.data());
  std::vector<QueryAnswer> answers;
  answers.reserve(req.keys.size());
  for (const Pipeline::QueryAnswer& a : grouped) {
    answers.push_back(
        QueryAnswer{a.qweight, static_cast<uint8_t>(a.is_candidate ? 1 : 0)});
  }
  conn->io.out().Encode(EncodeQueryResultTo, req.token, answers);
  QF_OBS(NetMetrics::Get().query_frame_ns.Record(MonotonicNanos() - t0));
}

void QfServer::HandleControl(Reactor& rx, Client* conn,
                             const FrameView& frame) {
#if QF_METRICS
  const uint64_t t0 = MonotonicNanos();
#endif
  ControlRequest req;
  if (!ParseControl(frame.payload, &req)) {
    rx.clients.SendError(conn, ErrorCode::kBadPayload,
                         "malformed CONTROL payload");
    return;
  }
  const auto reply = [&](ControlStatus status,
                         std::span<const uint8_t> payload = {}) {
    conn->io.out().Encode(EncodeControlResultTo, req.token, req.op, status,
                          payload);
  };
  // A payload past max_frame_bytes would produce a frame every compliant
  // decoder (including our client's) rejects, poisoning the stream of a
  // successful op — refuse instead.
  const auto reply_payload = [&](std::span<const uint8_t> payload) {
    if (payload.size() + kControlResultHeader > options_.max_frame_bytes) {
      reply(ControlStatus::kRejected);
    } else {
      reply(ControlStatus::kOk, payload);
    }
  };
  switch (req.op) {
    case ControlOp::kDrain: {
      WithGlobalQuiesce(rx, [] {});
      reply(ControlStatus::kOk);
      break;
    }
    case ControlOp::kCheckpoint: {
      // Quiesce + fence first: the checkpoint then covers every item acked
      // by ANY reactor so far, and the quiescent shards are safe to
      // serialize from this thread.
      WithGlobalQuiesce(rx, [&] {
        // Size max_frame_bytes to at least the filter memory budget
        // (Options comment, DESIGN.md §11), or this answers kRejected.
        reply_payload(filter_.SerializeState());
      });
      break;
    }
    case ControlOp::kRestore: {
      WithGlobalQuiesce(rx, [&] {
        const bool ok = filter_.RestoreState(req.op_payload);
        // Workers observe the restored state through their next ring pop /
        // control-slot post; parked peer reactors through the quiesce
        // release (release/acquire pairs in both protocols).
        if (ok && durable_enabled_) {
          // The restored blob replaces history: every logged record and
          // every checkpoint describes a filter that no longer exists. Bump
          // the WAL generation (stale segments from the old timeline fail
          // closed if they somehow survive) and anchor the new timeline
          // with a full checkpoint of the restored blob at covered_seq 0.
          {
            std::lock_guard<std::mutex> lock(wal_mu_);
            wal_->ResetTimeline(wal_->wal_gen() + 1);
            // The old timeline is gone; any in-flight segment ship against
            // it fails closed on the generation check, so drop its pin too.
            ship_floor_.store(~0ull, std::memory_order_release);
          }
          if (!AnchorFullCheckpoint(0, req.op_payload,
                                    durable::GatherRngStates(filter_))) {
            // Anchor write failed: drop the old checkpoints entirely rather
            // than let a next boot pair old-generation checkpoints with the
            // new log. An empty store plus the fresh log replays from
            // scratch.
            checkpoints_->RemoveAll();
          }
        }
        reply(ok ? ControlStatus::kOk : ControlStatus::kRejected);
      });
      break;
    }
    case ControlOp::kStats:
    case ControlOp::kMetrics: {
      // QFMS snapshots (DESIGN.md §15): kStats this server's own series,
      // kMetrics those plus the process registry. No quiesce: every series
      // is built for concurrent snapshot reads, and a monitoring poll must
      // never stall ingest. With QF_METRICS=0 the registry is (near-)empty,
      // but the server's own series are always there.
      std::vector<uint8_t> payload;
      EncodeMetricsPayloadTo(
          req.op == ControlOp::kStats ? OwnSeries() : Metrics(), &payload);
      reply_payload(payload);
      break;
    }
    case ControlOp::kTopology:
    case ControlOp::kMigrate: {
      // Coordinator-plane ops (DESIGN.md §16); a backend answering them
      // would hand out a topology it does not own.
      reply(ControlStatus::kBadRequest);
      break;
    }
    case ControlOp::kShardExport: {
      ShardExportRequest sreq;
      if (!ParseShardExportRequest(req.op_payload, &sreq) ||
          sreq.shard >= static_cast<uint32_t>(filter_.num_shards())) {
        reply(ControlStatus::kBadRequest);
        break;
      }
      // Quiesce + fence first: every acked item is then in the filter, so
      // the blob plus records with seq > snap_seq is exactly the shard's
      // history — the invariant the migration catch-up leans on.
      WithGlobalQuiesce(rx, [&] {
        ShardExport exp;
        exp.shard = sreq.shard;
        const int s = static_cast<int>(sreq.shard);
        exp.blob = filter_.shard(s).SerializeState();
        filter_.shard(s).GetRngState(exp.rng);
        if (durable_enabled_) {
          std::lock_guard<std::mutex> lock(wal_mu_);
          exp.wal_enabled = 1;
          exp.wal_gen = wal_->wal_gen();
          exp.snap_seq = wal_->next_seq() - 1;
          // Pin retention at the snapshot: the checkpoint cadence must not
          // reap records the catch-up loop has yet to ship.
          ship_floor_.store(exp.snap_seq, std::memory_order_release);
        }
        std::vector<uint8_t> payload;
        EncodeShardExportPayloadTo(exp, &payload);
        reply_payload(payload);
      });
      break;
    }
    case ControlOp::kShardImport: {
      ShardImport imp;
      if (!ParseShardImportPayload(req.op_payload, &imp) ||
          imp.shard >= static_cast<uint32_t>(filter_.num_shards())) {
        reply(ControlStatus::kBadRequest);
        break;
      }
      WithGlobalQuiesce(rx, [&] {
        const int s = static_cast<int>(imp.shard);
        bool ok = filter_.RestoreShardState(s, imp.blob);
        if (ok) {
          filter_.shard(s).SetRngState(imp.rng);
          // Catch-up re-ingest replays keys the donor already alerted on;
          // mute until kShardActivate so subscribers never see them twice.
          pipeline_.SetAlertMuted(s, true);
          if (durable_enabled_) {
            // The imported shard is derivable from neither this server's
            // checkpoints nor its log; anchor a full checkpoint so a crash
            // between import and the next cadence tick cannot lose it. On
            // write failure reject the import — the donor stays the owner
            // and this muted, traffic-less shard is simply overwritten by
            // the next attempt.
            uint64_t covered = 0;
            {
              std::lock_guard<std::mutex> lock(wal_mu_);
              covered = wal_->next_seq() - 1;
            }
            ok = AnchorFullCheckpoint(covered, filter_.SerializeState(),
                                      durable::GatherRngStates(filter_));
          }
        }
        reply(ok ? ControlStatus::kOk : ControlStatus::kRejected);
      });
      break;
    }
    case ControlOp::kShardActivate: {
      ShardActivateRequest areq;
      if (!ParseShardActivateRequest(req.op_payload, &areq) ||
          areq.shard >= static_cast<uint32_t>(filter_.num_shards())) {
        reply(ControlStatus::kBadRequest);
        break;
      }
      // The quiesce drains every ring first: all catch-up items are in the
      // shard (their muted reports swallowed) before alerts re-enable, so
      // no stale detection can slip out after the unmute.
      WithGlobalQuiesce(rx, [&] {
        pipeline_.SetAlertMuted(static_cast<int>(areq.shard), false);
        reply(ControlStatus::kOk);
      });
      break;
    }
    case ControlOp::kSegmentShip: {
      SegmentShipRequest sreq;
      if (!ParseSegmentShipRequest(req.op_payload, &sreq)) {
        reply(ControlStatus::kBadRequest);
        break;
      }
      if (!durable_enabled_) {
        reply(ControlStatus::kRejected);
        break;
      }
      if (sreq.after_seq == kSegmentShipRelease) {
        // Migration over (flipped or aborted): unpin retention.
        ship_floor_.store(~0ull, std::memory_order_release);
        SegmentShipResult res;
        res.exhausted = 1;
        std::vector<uint8_t> payload;
        EncodeSegmentShipPayloadTo(res, &payload);
        reply(ControlStatus::kOk, payload);
        break;
      }
      if (sreq.shard != kSegmentShipAllShards &&
          sreq.shard >= static_cast<uint32_t>(filter_.num_shards())) {
        reply(ControlStatus::kBadRequest);
        break;
      }
      // Bound the reply to both the caller's ask and what fits one frame.
      const size_t frame_cap =
          (options_.max_frame_bytes - kControlResultHeader - 16) /
          sizeof(Item);
      size_t max_items = sreq.max_items == 0
                             ? static_cast<size_t>(64 * 1024)
                             : static_cast<size_t>(sreq.max_items);
      if (max_items > frame_cap) max_items = frame_cap;
      struct KeepCtx {
        const Sharded* filter;
        uint32_t shard;
      } ctx{&filter_, sreq.shard};
      auto keep = +[](const Item& item, void* opaque) {
        const KeepCtx* c = static_cast<const KeepCtx*>(opaque);
        return c->filter->ShardFor(item.key) ==
               static_cast<int>(c->shard);
      };
      durable::WalRange wr;
      {
        // Holding wal_mu_ freezes appends/rotation, so the read sees only
        // whole frames and `exhausted` is exact at this instant.
        std::lock_guard<std::mutex> lock(wal_mu_);
        wr = durable::ReadWalRange(
            *storage_, wal_->wal_gen(), sreq.after_seq, max_items,
            sreq.shard == kSegmentShipAllShards ? nullptr : keep,
            sreq.shard == kSegmentShipAllShards ? nullptr : &ctx);
        if (wr.ok) {
          // Ratchet the retention pin forward past what was just shipped.
          const uint64_t floor =
              ship_floor_.load(std::memory_order_acquire);
          if (floor != ~0ull && wr.next_after > floor) {
            ship_floor_.store(wr.next_after, std::memory_order_release);
          }
        }
      }
      if (!wr.ok) {
        reply(ControlStatus::kRejected);
        break;
      }
      SegmentShipResult res;
      res.next_after = wr.next_after;
      res.exhausted = wr.exhausted ? 1 : 0;
      res.items = std::move(wr.items);
      std::vector<uint8_t> payload;
      EncodeSegmentShipPayloadTo(res, &payload);
      reply(ControlStatus::kOk, payload);
      break;
    }
    case ControlOp::kShutdown: {
      WithGlobalQuiesce(rx, [] {});
      reply(ControlStatus::kOk);
      rx.clients.BeginShutdown(conn);
      // Peers exit on their next loop iteration.
      for (auto& peer : reactors_) {
        if (peer->idx != rx.idx) peer->loop.Wake();
      }
      break;
    }
  }
  QF_OBS(NetMetrics::Get().control_frame_ns.Record(MonotonicNanos() - t0));
}

void QfServer::BroadcastAlerts(Reactor& rx) {
  // Reactor 0 is the alert rings' single consumer. Drain even with no
  // subscribers so the rings never silt up.
  std::vector<WireAlert> drained;
  uint64_t newest_ns = 0;
  pipeline_.DrainAlerts([&](int shard, const Pipeline::AlertRecord& rec) {
    WireAlert alert;
    alert.key = rec.key;
    alert.value = rec.value;
    alert.shard = static_cast<uint32_t>(shard);
    drained.push_back(alert);
    newest_ns = std::max(newest_ns, rec.detect_ns);
  });
  if (drained.empty()) return;
  // Post to peers first (their subscribers shouldn't wait on our socket
  // writes), then deliver locally. Every socket write stays on the reactor
  // that owns the socket.
  if (num_reactors_ > 1) {
    auto shared = std::make_shared<const std::vector<WireAlert>>(drained);
    for (auto& peer : reactors_) {
      if (peer->idx == rx.idx) continue;
      Reactor* p = peer.get();
      p->loop.Post([this, p, shared, newest_ns] {
        DeliverAlerts(*p, *shared, newest_ns);
      });
    }
  }
  DeliverAlerts(rx, drained, newest_ns);
}

void QfServer::DeliverAlerts(Reactor& rx, std::span<const WireAlert> alerts,
                             [[maybe_unused]] uint64_t newest_ns) {
  const size_t subscribers = rx.clients.FanOut(alerts);
  alerts_streamed_.fetch_add(subscribers * alerts.size(),
                             std::memory_order_relaxed);
  QF_OBS({
    // Alert-delivery lag: detection stamp (worker) -> subscriber write
    // queued (reactor 0 or a forwarded peer). Last-write-wins gauge over
    // the newest drained record; a growing value means the alert path is
    // falling behind ingest. Only meaningful when someone subscribed.
    if (subscribers == 0) return;
    const uint64_t now = MonotonicNanos();
    if (newest_ns != 0 && now > newest_ns) {
      NetMetrics::Get().alert_delivery_lag_ns.Set(
          static_cast<int64_t>(now - newest_ns));
    }
    obs::TraceRing& tr = obs::TraceRing::Global();
    if (tr.enabled() && newest_ns != 0 && now > newest_ns &&
        obs::SampleHit<obs::StageTraceSampling>()) {
      tr.Emit(obs::TraceEvent::kAlertDeliver,
              static_cast<uint16_t>(obs::kReactorTidBase + rx.idx), newest_ns,
              now - newest_ns, alerts.size());
    }
  });
}

}  // namespace qf::net
