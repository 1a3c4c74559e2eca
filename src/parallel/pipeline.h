// Multi-threaded ingest pipeline over a ShardedQuantileFilter.
//
// Topology (cf. OctoSketch-style sketch pipelines and the ROADMAP's
// sharding/batching/async north star):
//
//   producer 0 ──arena + span ring──▶ worker 0 ──▶ shard 0 (QuantileFilter)
//       │      ──arena + span ring──▶ worker 1 ──▶ shard 1
//   producer 1 ──arena + span ring──▶ worker 0   (own channel per pair)
//       └──...
//
// The pipeline supports P independent producers (Options::num_producers).
// Each (producer, shard) pair owns a private channel: a power-of-two item
// arena plus an SPSC ring of 16-byte span descriptors {begin, count}. A
// producer routes each item to its owning shard (ShardFor, division-free —
// or the caller's own pre-computed shard via PushToShard) and writes it
// ONCE into its channel's arena; every `batch_size` items (adaptively grown
// toward kMaxBatch under backlog) it publishes a span descriptor. Worker s
// drains the P rings that feed shard s in bursts, drives InsertBatch
// directly over the arena storage (prefetching batched fast path), and
// release-stores one consumed-items watermark per burst — not per span —
// so release/acquire cache traffic amortizes across the burst.
//
// The default P = 1 is the classic single-dispatcher shape; the serving
// layer runs one producer per reactor thread (net/server.cc --reactors) so
// N cores feed N×S channels with no shared dispatcher bottleneck.
//
// Waiting (DESIGN.md §13, parallel/park.h): every wait — worker on empty
// rings, producer on a full ring or arena, control requester on its done
// flag — backs off spin→yield→futex-park instead of yield-spinning, so
// idle shards stop burning the cores the busy shards need. Wakeups ride
// the SPSC ring wake hooks (push wakes a parked worker, pop wakes a parked
// producer), watermark stores, and control-slot posts; ParkingSpot's
// fence protocol makes the sleep decision lost-wakeup-free.
//
// This honors the sharded filter's thread-safety contract exactly: every
// shard has a single writer (its worker), shards share no mutable state,
// and the SPSC rings + consumed watermarks are the only data channels.
//
// Because a producer preserves per-key order (a key always maps to the
// same shard and channel, and descriptors are FIFO), a single-producer
// pipeline makes every shard observe the same per-shard subsequence it
// would observe under single-threaded insertion — so per-shard reports,
// statistics and serialized state are bit-identical to a sequential run
// over the same trace (pipeline_test.cc asserts this; a descriptor that
// wraps the arena is split into two InsertBatch calls, which the
// InsertBatch equivalence guarantee makes identity-preserving). With
// multiple producers, items of one key stay ordered within each producer;
// cross-producer interleaving is decided by arrival, as on any shared
// network ingress.
//
// Shutdown: Stop() flushes partial spans, raises `done` (release), wakes
// all workers, and workers drain their rings to empty before exiting — no
// items are lost.
//
// Threading contract (enforced with assert() in debug builds):
//   - Producer slot p (Push*/Flush with that index) may be driven by one
//     thread at a time; the first push claims ownership and Flush()
//     releases it (handoff across threads requires a Flush in between).
//   - Query/QueryBatch/Fence may run from any producer thread while the
//     pipeline runs; an internal control mutex serializes them. Fence()
//     drains what happened-before it on OTHER producers only if those
//     producers have flushed — the serving layer quiesces its reactors
//     before a global fence (net/server.cc).
//   - Stop() must run after every producer has Flush()ed and stopped
//     pushing (single-producer: on the dispatcher thread, as before).

#ifndef QUANTILEFILTER_PARALLEL_PIPELINE_H_
#define QUANTILEFILTER_PARALLEL_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "core/sharded_filter.h"
#include "obs/instrument.h"
#include "parallel/park.h"
#include "parallel/placement.h"
#include "parallel/spsc_ring.h"
#include "stream/item.h"

#if QF_METRICS
#include "common/time.h"
#endif

namespace qf {

template <typename SketchT = CountSketch<int16_t>>
class IngestPipeline {
 public:
  using Sharded = ShardedQuantileFilter<SketchT>;

  /// Upper bound on items per published span (and on producer-staged
  /// items per channel).
  static constexpr size_t kMaxBatch = 64;

  /// Spans a worker drains from one channel before storing the consumed
  /// watermark and rotating to the next producer's ring (coalesces the
  /// release-store + wake to one per burst).
  static constexpr size_t kBurstSpans = 8;

  struct Options {
    /// Items staged per channel before the span is published (≤ kMaxBatch).
    /// This is the floor of the adaptive span size: under backlog the
    /// effective span grows toward kMaxBatch to cut descriptor traffic,
    /// and snaps back when the consumer goes idle.
    size_t batch_size = 32;
    /// Descriptor-ring capacity per channel, in spans (rounded down to a
    /// power of 2). The per-channel item arena holds ring_batches *
    /// kMaxBatch items, so the worst-case buffered footprint matches the
    /// previous batch-copy transport.
    size_t ring_batches = 256;
    /// Independent producer slots (one per ingest thread; the serving
    /// layer uses one per reactor). Memory scales with
    /// num_producers × num_shards channels.
    int num_producers = 1;
    /// Record the keys of reported items per shard (for tests/alerting).
    bool collect_reported_keys = false;
    /// Per-shard alert-ring capacity in records (rounded down to a power
    /// of 2). When non-zero, every outstanding-key report is pushed into
    /// its shard's SPSC alert ring for DrainAlerts to consume; a full ring
    /// drops the record and counts it (at-most-once delivery).
    size_t alert_ring_records = 0;
    /// Worker pinning + NUMA first-touch policy (off by default).
    PlacementOptions placement;
  };

  /// Aggregate pipeline counters; stable once Stop() has returned (live
  /// reads are safe but may trail the workers by a batch).
  struct Totals {
    uint64_t items_dispatched = 0;  // items accepted by Push
    uint64_t items_processed = 0;   // items drained by workers
    uint64_t batches = 0;           // span descriptors shipped
    uint64_t reports = 0;           // outstanding-key reports across shards
    uint64_t ring_full_waits = 0;   // producer backpressure stalls
    uint64_t alerts_dropped = 0;    // alert-ring overflows
    uint64_t worker_parks = 0;      // worker futex sleeps
    uint64_t producer_parks = 0;    // producer futex sleeps
  };

  /// One outstanding-key detection, as queued for alert subscribers. The
  /// shard index is implied by the ring it is drained from.
  struct AlertRecord {
    uint64_t key = 0;
    double value = 0.0;  // the item value that triggered the report
    /// MonotonicNanos() at detection (QF_METRICS builds; 0 otherwise). The
    /// serving layer turns this into the alert-delivery lag gauge when the
    /// record is written to subscribers.
    uint64_t detect_ns = 0;
  };

  /// Answer to a point query executed on the owning shard's worker thread.
  struct QueryAnswer {
    int64_t qweight = 0;
    bool is_candidate = false;
  };

  IngestPipeline(Sharded& filter, const Options& options = Options{})
      : filter_(&filter),
        batch_size_(options.batch_size < 1
                        ? 1
                        : (options.batch_size > kMaxBatch
                               ? kMaxBatch
                               : options.batch_size)),
        arena_items_(
            FloorPow2(std::max<size_t>(options.ring_batches, 2) * kMaxBatch)),
        arena_mask_(arena_items_ - 1),
        num_producers_(options.num_producers < 1 ? 1 : options.num_producers),
        collect_reported_keys_(options.collect_reported_keys),
        alerts_enabled_(options.alert_ring_records > 0),
        placement_(options.placement),
        producers_(static_cast<size_t>(num_producers_)),
        channels_(static_cast<size_t>(num_producers_) *
                  static_cast<size_t>(filter.num_shards())),
        workers_(static_cast<size_t>(filter.num_shards())),
        slots_(static_cast<size_t>(filter.num_shards())) {
    for (size_t ci = 0; ci < channels_.size(); ++ci) {
      Channel& c = channels_[ci];
      // Default-initialized (untouched) storage: pages are first faulted by
      // whoever writes first — the worker's pre-fault pass when
      // placement.first_touch_arenas is set, else the producer.
      c.arena.reset(new Item[arena_items_]);
      c.ring = std::make_unique<SpscRing<SpanDesc>>(options.ring_batches);
      c.adaptive_batch = static_cast<uint32_t>(batch_size_);
      const size_t s = ci % workers_.size();
      const size_t p = ci / workers_.size();
      c.ring->SetConsumerWaiter(&workers_[s].park);
      c.ring->SetProducerWaiter(&producers_[p].park);
    }
    if (alerts_enabled_) {
      alert_rings_.reserve(workers_.size());
      for (size_t s = 0; s < workers_.size(); ++s) {
        alert_rings_.push_back(std::make_unique<SpscRing<AlertRecord>>(
            options.alert_ring_records));
      }
      alert_muted_.reset(new std::atomic<bool>[workers_.size()]);
      for (size_t s = 0; s < workers_.size(); ++s) {
        alert_muted_[s].store(false, std::memory_order_relaxed);
      }
    }
#if QF_METRICS
    shard_metrics_.reserve(workers_.size());
    for (size_t s = 0; s < workers_.size(); ++s) {
      shard_metrics_.push_back(obs::ShardMetricsFor(static_cast<int>(s)));
    }
#endif
  }

  ~IngestPipeline() { Stop(); }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  int num_shards() const { return filter_->num_shards(); }
  int num_producers() const { return num_producers_; }

  /// Spawns one worker thread per shard and waits until each has finished
  /// its startup pass (arena pre-fault under first_touch_arenas), so no
  /// producer write can race the pre-fault. Idempotent.
  void Start() {
    if (running_.load(std::memory_order_relaxed)) return;
    done_.store(false, std::memory_order_relaxed);
    workers_ready_.store(0, std::memory_order_relaxed);
    threads_.reserve(workers_.size());
    for (size_t s = 0; s < workers_.size(); ++s) {
      threads_.emplace_back([this, s] { WorkerLoop(static_cast<int>(s)); });
    }
    while (workers_ready_.load(std::memory_order_acquire) <
           static_cast<int>(workers_.size())) {
      std::this_thread::yield();
    }
    running_.store(true, std::memory_order_release);
  }

  /// Dispatches one item to its shard's arena on producer slot 0. Call
  /// from exactly one thread per producer slot, and only while the
  /// pipeline is running — otherwise no worker drains the rings and a full
  /// arena would block the producer forever.
  void Push(uint64_t key, double value) {
    PushToShardFrom(0, filter_->ShardFor(key), key, value);
  }
  void Push(const Item& item) { Push(item.key, item.value); }
  void PushFrom(int p, uint64_t key, double value) {
    PushToShardFrom(p, filter_->ShardFor(key), key, value);
  }

  /// Same as Push for a caller that already knows the owning shard (the
  /// serving layer hashes keys at frame-decode time and scatters items
  /// straight here, skipping a second ShardFor). `s` MUST equal
  /// filter's ShardFor(key), or per-key ordering — and the sharded filter's
  /// single-writer-per-key guarantee across checkpoints — breaks.
  void PushToShard(int s, uint64_t key, double value) {
    PushToShardFrom(0, s, key, value);
  }
  void PushToShardFrom(int p, int s, uint64_t key, double value) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::Push outside Start()/Stop()");
    assert(s == filter_->ShardFor(key) && "PushToShard: wrong shard for key");
    ClaimProducer(p);
    PushStaged(static_cast<size_t>(p), static_cast<size_t>(s), key, value);
  }

  /// Batched push: hashes a block of keys in a tight loop (one Mix64 per
  /// item, vectorizer-friendly, no interleaved arena traffic), then
  /// scatters the block into the per-shard arenas. Functionally identical
  /// to calling Push per item, measurably cheaper: the hash loop keeps the
  /// multiply pipeline busy while the scatter loop touches memory.
  void PushBatch(std::span<const Item> items) { PushBatchFrom(0, items); }
  void PushBatchFrom(int p, std::span<const Item> items) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::PushBatch outside Start()/Stop()");
    ClaimProducer(p);
    const size_t pi = static_cast<size_t>(p);
    constexpr size_t kHashBlock = 32;
    int shards[kHashBlock];
    size_t i = 0;
    while (i < items.size()) {
      const size_t n = std::min(kHashBlock, items.size() - i);
      for (size_t j = 0; j < n; ++j) {
        shards[j] = filter_->ShardFor(items[i + j].key);
      }
      for (size_t j = 0; j < n; ++j) {
        PushStaged(pi, static_cast<size_t>(shards[j]), items[i + j].key,
                   items[i + j].value);
      }
      i += n;
    }
  }

  /// Publishes all partially-staged spans of producer `p` and releases its
  /// ownership, so a producer thread that is done pushing should call
  /// Flush() before handing its slot to another thread (which may then
  /// Push or Stop). Must run while the pipeline is running.
  void Flush() { FlushFrom(0); }
  void FlushFrom(int p) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::Flush outside Start()/Stop()");
    ClaimProducer(p);
#if QF_METRICS
    const uint64_t t0 =
        obs::TraceRing::Global().enabled() ? MonotonicNanos() : 0;
#endif
    for (size_t s = 0; s < workers_.size(); ++s) {
      PublishSpan(static_cast<size_t>(p), s);
    }
    QF_OBS(if (t0 != 0) {
      obs::TraceRing::Global().Emit(obs::TraceEvent::kFlush, 0, t0,
                                    MonotonicNanos() - t0, workers_.size());
    });
    ReleaseProducer(p);
  }

  /// Runs a point query for `key` on its owning shard's worker thread, so
  /// shard state is only ever touched by one thread. Any thread, while
  /// running; control requests across producers are serialized internally.
  /// The answer reflects the shard as of the worker's current position in
  /// its rings — items still staged or queued are not included; call
  /// Fence() first for read-your-writes semantics.
  QueryAnswer Query(uint64_t key) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::Query outside Start()/Stop()");
    ShardRequest req;
    req.kind = ShardRequest::Kind::kQuery;
    req.key = key;
    {
      std::lock_guard<std::mutex> lock(control_mutex_);
      Post(filter_->ShardFor(key), &req);
    }
    AwaitDone(&req);
    return QueryAnswer{req.qweight, req.is_candidate};
  }

  /// Runs point queries for all `keys` with one control-slot round trip
  /// per owning shard (not per key): keys are grouped by shard, every
  /// group is posted before any is waited on, and the shard workers
  /// execute their groups concurrently. `answers[i]` corresponds to
  /// `keys[i]`. Same caller contract and consistency semantics as
  /// Query().
  void QueryBatch(std::span<const uint64_t> keys, QueryAnswer* answers) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::QueryBatch outside Start()/Stop()");
    const size_t nshards = workers_.size();
    std::vector<std::vector<uint64_t>> shard_keys(nshards);
    std::vector<std::vector<size_t>> shard_pos(nshards);
    for (size_t i = 0; i < keys.size(); ++i) {
      const size_t s = static_cast<size_t>(filter_->ShardFor(keys[i]));
      shard_keys[s].push_back(keys[i]);
      shard_pos[s].push_back(i);
    }
    std::vector<std::vector<QueryAnswer>> shard_answers(nshards);
    std::vector<ShardRequest> reqs(nshards);
    std::lock_guard<std::mutex> lock(control_mutex_);
    for (size_t s = 0; s < nshards; ++s) {
      if (shard_keys[s].empty()) continue;
      shard_answers[s].resize(shard_keys[s].size());
      reqs[s].kind = ShardRequest::Kind::kQueryBatch;
      reqs[s].keys = shard_keys[s].data();
      reqs[s].answers = shard_answers[s].data();
      reqs[s].count = shard_keys[s].size();
      Post(static_cast<int>(s), &reqs[s]);
    }
    for (size_t s = 0; s < nshards; ++s) {
      if (shard_keys[s].empty()) continue;
      AwaitDone(&reqs[s]);
      for (size_t j = 0; j < shard_pos[s].size(); ++j) {
        answers[shard_pos[s][j]] = shard_answers[s][j];
      }
    }
  }

  /// Drain barrier for producer slot 0 (the classic dispatcher shape):
  /// ships all staged spans, then blocks until every worker has emptied
  /// ALL its rings and processed everything pushed before the fence.
  /// Afterwards (and until new Pushes) the sharded filter is quiescent:
  /// per-shard state, stats and SerializeState() may be read from the
  /// calling thread. With multiple producers the caller must quiesce the
  /// other producer threads first (each calls FlushFrom and stops pushing,
  /// as the serving layer's reactor-quiesce protocol does) — a fence
  /// cannot outrun producers that keep pushing.
  void Fence() { FenceFrom(0); }
  void FenceFrom(int p) {
    assert(running_.load(std::memory_order_relaxed) &&
           "IngestPipeline::Fence outside Start()/Stop()");
    FlushFrom(p);
    std::lock_guard<std::mutex> lock(control_mutex_);
    for (size_t s = 0; s < workers_.size(); ++s) {
      ShardRequest req;
      req.kind = ShardRequest::Kind::kFence;
      Post(static_cast<int>(s), &req);
      AwaitDone(&req);
    }
  }

  /// Pops every queued alert (in per-shard FIFO order) and invokes
  /// `fn(shard, record)`. Single-consumer: call from one thread at a time
  /// (the serving layer's event loop). Returns the number drained. Only
  /// meaningful when Options::alert_ring_records > 0.
  template <typename Fn>
  size_t DrainAlerts(Fn&& fn) {
    if (!alerts_enabled_) return 0;
    size_t drained = 0;
    for (size_t s = 0; s < alert_rings_.size(); ++s) {
      AlertRecord record;
      while (alert_rings_[s]->TryPop(&record)) {
        fn(static_cast<int>(s), record);
        ++drained;
      }
    }
    return drained;
  }

  /// Flushes every producer slot, signals shutdown, wakes and joins all
  /// workers. Stop() must run after all producer threads have Flush()ed
  /// and stopped pushing (their slots are unowned; single-producer: run it
  /// on the dispatcher thread, as before). After Stop() the underlying
  /// sharded filter and all counters are safe to read from the calling
  /// thread. Idempotent.
  void Stop() {
    if (!running_.load(std::memory_order_relaxed)) return;
    for (int p = 0; p < num_producers_; ++p) FlushFrom(p);
    done_.store(true, std::memory_order_release);
    for (WorkerState& w : workers_) w.park.Wake();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    running_.store(false, std::memory_order_relaxed);
    // Workers are joined, so their shard stats are plainly readable here;
    // publish any deltas below the periodic flush granularity so snapshots
    // taken after Stop() are exact.
    QF_OBS(filter_->FlushMetrics());
  }

  /// Convenience harness: Start(), feed `items` from a dedicated dispatcher
  /// thread, then Stop(). Returns the total number of reports. The
  /// dispatcher flushes and is joined before Stop() runs on this thread,
  /// satisfying the threading contract.
  uint64_t RunTrace(std::span<const Item> items) {
    Start();
    std::thread dispatcher([this, items] {
      PushBatch(items);
      Flush();  // ship partial spans and release producer ownership
    });
    dispatcher.join();
    Stop();
    return totals().reports;
  }

  /// Aggregate counters; call after Stop() (workers joined) for exact
  /// values.
  Totals totals() const {
    Totals t;
    for (const ProducerBlock& p : producers_) {
      t.items_dispatched +=
          p.items_dispatched.load(std::memory_order_relaxed);
      t.ring_full_waits += p.ring_full_waits.load(std::memory_order_relaxed);
      t.producer_parks += p.parks.load(std::memory_order_relaxed);
    }
    for (const WorkerState& w : workers_) {
      t.items_processed += w.items.load(std::memory_order_relaxed);
      t.batches += w.batches.load(std::memory_order_relaxed);
      t.reports += w.reports.load(std::memory_order_relaxed);
      t.alerts_dropped += w.alerts_dropped.load(std::memory_order_relaxed);
      t.worker_parks += w.parks.load(std::memory_order_relaxed);
    }
    return t;
  }

  /// Reports emitted by shard `s`'s worker (after Stop()).
  uint64_t shard_reports(int s) const {
    return workers_[static_cast<size_t>(s)].reports.load(
        std::memory_order_relaxed);
  }

  /// Items processed by shard `s`'s worker. Exact only behind a fence or
  /// global quiesce; qfbench's shard-skew probe reads it there.
  uint64_t shard_items(int s) const {
    return workers_[static_cast<size_t>(s)].items.load(
        std::memory_order_relaxed);
  }

  /// Keys reported by shard `s`, in processing order. Only populated when
  /// Options::collect_reported_keys is set.
  const std::vector<uint64_t>& reported_keys(int s) const {
    return workers_[static_cast<size_t>(s)].reported_keys;
  }

  /// Mutes/unmutes shard `s`'s alert pushes (migration catch-up, DESIGN.md
  /// §16): a freshly imported shard replays the donor's already-alerted
  /// history, and those re-detections must not reach subscribers. Muted
  /// reports are counted neither as streamed nor dropped. No-op when
  /// alerts are disabled. Safe from any thread; the worker observes the
  /// flag at the next report (callers bracket with fences when they need
  /// exactness).
  void SetAlertMuted(int s, bool muted) {
    if (!alerts_enabled_) return;
    alert_muted_[static_cast<size_t>(s)].store(muted,
                                               std::memory_order_release);
  }

  bool alert_muted(int s) const {
    return alerts_enabled_ &&
           alert_muted_[static_cast<size_t>(s)].load(
               std::memory_order_acquire);
  }

 private:
  /// A published run of items in a channel's arena: arena indices
  /// [begin, begin + count) modulo the arena size. 16 bytes — the only
  /// thing the SPSC ring copies.
  struct SpanDesc {
    uint64_t begin = 0;  // monotone item sequence number, never wrapped
    uint32_t count = 0;
    /// Low 32 bits of MonotonicNanos() at publish (0 = unstamped), used by
    /// the worker to attribute ring/queue wait (qf_stage_queue_wait_ns).
    /// u32 wraparound makes waits beyond ~4.29 s alias; such spans land in
    /// the histogram's tail, which is exactly where a 4 s queue wait
    /// belongs anyway.
    uint32_t publish_ns32 = 0;
  };

  /// One producer→shard channel. The first block is producer-owned hot
  /// state (cursors + staging), the trailing atomic is the worker's
  /// consumed watermark — separate cache lines so neither side's writes
  /// invalidate the other's working set. `produced` counts items covered
  /// by published descriptors; `staged` counts items written to the arena
  /// beyond that (≤ adaptive_batch); `cached_consumed` is the last
  /// observed worker watermark, refreshed only when the space check fails.
  struct Channel {
    alignas(64) uint64_t produced = 0;
    uint64_t cached_consumed = 0;
    uint32_t staged = 0;
    /// Effective span size: starts at batch_size, doubles (≤ kMaxBatch)
    /// when the descriptor ring backs up, snaps back to batch_size when
    /// the worker is found parked (starving).
    uint32_t adaptive_batch = 32;
    std::unique_ptr<Item[]> arena;
    std::unique_ptr<SpscRing<SpanDesc>> ring;
    /// Worker-released arena-space watermark: every item with sequence
    /// number < consumed has been fully processed and its slot may be
    /// overwritten (release store, acquire load in WaitForArenaSpace).
    /// Stored once per drain burst, not per span.
    alignas(64) std::atomic<uint64_t> consumed{0};
  };

  /// Per-producer block: ownership claim, counters (relaxed atomics with a
  /// single writer — the owning thread — so live stats snapshots are
  /// race-free) and the spot the producer parks on under backpressure.
  struct alignas(64) ProducerBlock {
    std::atomic<std::thread::id> owner{};
    std::atomic<uint64_t> items_dispatched{0};
    std::atomic<uint64_t> ring_full_waits{0};
    std::atomic<uint64_t> parks{0};
    ParkingSpot park;
  };

  /// Per-worker state, cache-line padded: each worker mutates only its own
  /// entry while running. The counters are relaxed atomics so live stats
  /// snapshots (the serving layer's CONTROL kStats) can read them without a
  /// race; exact values require Stop() or Fence() first. reported_keys is
  /// worker-only until the workers are joined.
  struct alignas(64) WorkerState {
    std::atomic<uint64_t> items{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> reports{0};
    std::atomic<uint64_t> alerts_dropped{0};
    std::atomic<uint64_t> parks{0};
    ParkingSpot park;
    std::vector<uint64_t> reported_keys;
  };

  /// A request posted into a shard's control slot and executed by that
  /// shard's worker, preserving the one-thread-per-shard contract for
  /// reads. kFence is only answered once ALL the worker's rings are empty,
  /// which (after the producers' flushes) means everything pushed before
  /// the fence has been processed. `done` is a futex word: 0 = pending,
  /// 1 = answered (the waiter parks on it).
  struct ShardRequest {
    enum class Kind : uint8_t { kQuery, kQueryBatch, kFence };
    Kind kind = Kind::kQuery;
    uint64_t key = 0;
    int64_t qweight = 0;        // out (kQuery)
    bool is_candidate = false;  // out (kQuery)
    // kQueryBatch: `count` keys to look up and their answer slots. The
    // arrays are requester-owned; the done release/acquire pair publishes
    // the worker's writes back.
    const uint64_t* keys = nullptr;
    QueryAnswer* answers = nullptr;
    size_t count = 0;
    std::atomic<uint32_t> done{0};
  };

  /// One control slot per shard; requesters post (release, under
  /// control_mutex_), the worker answers and clears. Padded so polling a
  /// slot never false-shares with others.
  struct alignas(64) ControlSlot {
    std::atomic<ShardRequest*> req{nullptr};
  };

  /// Single-writer counter bump: a plain load/store pair instead of an
  /// atomic RMW keeps producer hot paths free of locked instructions while
  /// still letting other threads read without a race.
  static void BumpRelaxed(std::atomic<uint64_t>& counter, uint64_t n = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  Channel& ChannelAt(size_t p, size_t s) {
    return channels_[p * workers_.size() + s];
  }

  /// The staged-push core: arena write + adaptive publish. Producer `p`
  /// must be claimed by the calling thread.
  void PushStaged(size_t p, size_t s, uint64_t key, double value) {
    Channel& c = ChannelAt(p, s);
    if (c.produced + c.staged - c.cached_consumed >= arena_items_) {
      WaitForArenaSpace(p, c);
    }
    c.arena[(c.produced + c.staged) & arena_mask_] = Item{key, value};
    ++c.staged;
    BumpRelaxed(producers_[p].items_dispatched);
    if (c.staged >= c.adaptive_batch) PublishSpan(p, s);
  }

  /// Posts a request to shard `s`'s control slot (caller holds
  /// control_mutex_) and wakes the worker. The slot must be free — the
  /// mutex guarantees it, because every post is awaited before the mutex
  /// is released... except QueryBatch, which posts several DIFFERENT
  /// slots before waiting; each slot still sees one request at a time.
  void Post(int s, ShardRequest* req) {
    ControlSlot& slot = slots_[static_cast<size_t>(s)];
    assert(slot.req.load(std::memory_order_relaxed) == nullptr);
    slot.req.store(req, std::memory_order_release);
    workers_[static_cast<size_t>(s)].park.Wake();
  }

  /// Blocks until the worker answers `req`, spin→yield→futex on the done
  /// word (the worker FutexWakes it after the release store).
  void AwaitDone(ShardRequest* req) {
    AdaptiveBackoff backoff;
    while (req->done.load(std::memory_order_acquire) == 0) {
      if (backoff.ShouldPark()) {
        // futex_wait re-checks done == 0 atomically, so the worker's
        // store-then-wake cannot be lost.
        ParkingSpot::WaitWhile(&req->done, 0);
      }
    }
  }

  /// Worker-side slot poll. Fences re-verify ring emptiness AFTER the
  /// acquire load of the request: a verdict from a TryPop that ran before
  /// the load could race the requester (Flush pushes a span, then posts
  /// the fence) and complete the fence with a pre-fence span still
  /// queued. The acquire load synchronizes with the requester's release
  /// store of the request, which its Flush() pushes happen-before, so the
  /// consumer-side emptiness test observes every pre-fence push.
  void AnswerSlot(int s, typename Sharded::Filter& shard) {
    ControlSlot& slot = slots_[static_cast<size_t>(s)];
    ShardRequest* req = slot.req.load(std::memory_order_acquire);
    if (req == nullptr) return;
    switch (req->kind) {
      case ShardRequest::Kind::kFence:
        for (int p = 0; p < num_producers_; ++p) {
          if (!ChannelAt(static_cast<size_t>(p), static_cast<size_t>(s))
                   .ring->ConsumerEmpty()) {
            return;  // pre-fence work still queued on some channel
          }
        }
        break;
      case ShardRequest::Kind::kQuery:
        req->qweight = shard.QueryQweight(req->key);
        req->is_candidate = shard.IsCandidate(req->key);
        break;
      case ShardRequest::Kind::kQueryBatch:
        for (size_t i = 0; i < req->count; ++i) {
          req->answers[i] = QueryAnswer{shard.QueryQweight(req->keys[i]),
                                        shard.IsCandidate(req->keys[i])};
        }
        break;
    }
    slot.req.store(nullptr, std::memory_order_relaxed);
    req->done.store(1, std::memory_order_release);
    // The requester may be parked on the done word; futex_wake pairs with
    // AwaitDone's futex_wait (which re-checks done atomically).
    ParkingSpot::WakeAll(&req->done);
  }

  /// Claims producer slot `p` for the calling thread, or asserts that this
  /// thread already holds it. The CAS/store pair also publishes the
  /// claimer's prior writes to the arenas and cursors to the next claimer
  /// (handoff across Flush()).
  void ClaimProducer(int p) {
    ProducerBlock& b = producers_[static_cast<size_t>(p)];
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!b.owner.compare_exchange_strong(expected, self,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      assert(expected == self &&
             "IngestPipeline: Push/Flush from a second thread while "
             "another thread owns this producer slot (single-producer "
             "violation); the owner must Flush() first");
      (void)expected;
    }
  }
  void ReleaseProducer(int p) {
    producers_[static_cast<size_t>(p)].owner.store(
        std::thread::id{}, std::memory_order_release);
  }

  /// Blocks until the channel's arena has room for one more staged item.
  /// Cannot deadlock: the arena holds ≥ 2 * kMaxBatch items while staged
  /// ≤ kMaxBatch, so a full arena implies published-but-unconsumed items
  /// exist and the worker is making progress. The wait backs off to a
  /// futex park; the worker's burst-end watermark store wakes it.
  void WaitForArenaSpace(size_t p, Channel& c) {
    ProducerBlock& b = producers_[p];
    AdaptiveBackoff backoff;
    for (;;) {
      c.cached_consumed = c.consumed.load(std::memory_order_acquire);
      if (c.produced + c.staged - c.cached_consumed < arena_items_) return;
      BumpRelaxed(b.ring_full_waits);
      if (backoff.ShouldPark()) {
        b.park.PreparePark();
        c.cached_consumed = c.consumed.load(std::memory_order_acquire);
        if (c.produced + c.staged - c.cached_consumed < arena_items_) {
          b.park.CancelPark();
          return;
        }
        BumpRelaxed(b.parks);
        QF_OBS(obs::PipelineMetrics::Get().producer_parks.Add(1));
        b.park.Park();
        backoff.Reset();
      }
    }
  }

  void PublishSpan(size_t p, size_t s) {
    Channel& c = ChannelAt(p, s);
    if (c.staged == 0) return;
    ProducerBlock& b = producers_[p];
    SpscRing<SpanDesc>& ring = *c.ring;
#if QF_METRICS
    // Queue-wait stamp. Taken before the push, so producer backpressure
    // stalls count as queue wait too (the span IS waiting for the ring).
    uint32_t publish_ns32 = static_cast<uint32_t>(MonotonicNanos());
    if (publish_ns32 == 0) publish_ns32 = 1;  // 0 means unstamped
    const SpanDesc desc{c.produced, c.staged, publish_ns32};
#else
    const SpanDesc desc{c.produced, c.staged, 0};
#endif
#if QF_METRICS
    uint64_t stalls = 0;
    uint64_t stall_start_ns = 0;
#endif
    // The ring's release push publishes the arena writes in [begin,
    // begin + count) to the worker's acquire pop, and its wake hook
    // un-parks an idle worker.
    if (!ring.TryPush(desc)) {
      // Backlog: the worker is behind. Grow the effective span so future
      // publishes amortize descriptor traffic, then wait out the full
      // ring with the spin→yield→park ladder (the worker's TryPop wake
      // hook un-parks us).
      c.adaptive_batch = std::min<uint32_t>(
          c.adaptive_batch * 2, static_cast<uint32_t>(kMaxBatch));
      AdaptiveBackoff backoff;
      for (;;) {
        BumpRelaxed(b.ring_full_waits);
        QF_OBS({
          ++stalls;
          if (stall_start_ns == 0) stall_start_ns = MonotonicNanos();
        });
        if (backoff.ShouldPark()) {
          b.park.PreparePark();
          if (ring.TryPush(desc)) {
            b.park.CancelPark();
            break;
          }
          BumpRelaxed(b.parks);
          QF_OBS(obs::PipelineMetrics::Get().producer_parks.Add(1));
          b.park.Park();
          backoff.Reset();
        } else if (ring.TryPush(desc)) {
          break;
        }
      }
    } else if (c.adaptive_batch > batch_size_ &&
               workers_[s].park.IsParkedApprox()) {
      // The worker drained everything and went to sleep: favor latency
      // again until the next backlog.
      c.adaptive_batch = static_cast<uint32_t>(batch_size_);
    }
    c.produced += c.staged;
    c.staged = 0;
#if QF_METRICS
    obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
    pm.items_dispatched.Add(desc.count);
    obs::TraceRing& tr = obs::TraceRing::Global();
    if (stalls != 0) {
      pm.ring_full_waits.Add(stalls);
      tr.Emit(obs::TraceEvent::kRingStall, static_cast<uint16_t>(s),
              stall_start_ns, MonotonicNanos() - stall_start_ns, stalls);
    }
    if (tr.enabled()) {
      // Instantaneous ship marker; the clock read is gated on tracing so
      // untraced runs pay only the enabled() load.
      tr.Emit(obs::TraceEvent::kBatchShip, static_cast<uint16_t>(s),
              MonotonicNanos(), 0, desc.count);
    }
#endif
  }

  /// Drains up to kBurstSpans descriptors from channel (p, s), then
  /// publishes ONE consumed-watermark store + producer wake for the whole
  /// burst. Returns the number of spans drained.
  size_t DrainBurst(size_t p, int s, typename Sharded::Filter& shard,
                    WorkerState& state) {
    Channel& c = ChannelAt(p, static_cast<size_t>(s));
    SpanDesc desc;
    size_t drained = 0;
    uint64_t watermark = 0;
    while (drained < kBurstSpans && c.ring->TryPop(&desc)) {
      QF_OBS(RecordOccupancy(s, *c.ring));
      ProcessSpan(s, c, shard, state, desc);
      watermark = desc.begin + desc.count;
      ++drained;
    }
    if (drained > 0) {
      // One release store + wake per burst: pairs with the acquire in
      // WaitForArenaSpace; the wake un-parks a producer waiting out
      // arena backpressure.
      c.consumed.store(watermark, std::memory_order_release);
      producers_[p].park.Wake();
    }
    return drained;
  }

  bool AnyWorkQueued(int s) {
    for (int p = 0; p < num_producers_; ++p) {
      if (!ChannelAt(static_cast<size_t>(p), static_cast<size_t>(s))
               .ring->ConsumerEmpty()) {
        return true;
      }
    }
    return slots_[static_cast<size_t>(s)].req.load(
               std::memory_order_acquire) != nullptr;
  }

  void WorkerLoop(int s) {
    auto& shard = filter_->shard(s);
    WorkerState& state = workers_[static_cast<size_t>(s)];
    if (placement_.pin_threads) {
      PinThreadToCore(PlacementCore(placement_, s));
    }
    if (placement_.first_touch_arenas) {
      // NUMA first-touch: fault this shard's arenas in from its own
      // (pinned) thread, so the pages live on this worker's node. Start()
      // blocks on workers_ready_ until this completes, so no producer
      // write can race the pre-fault.
      for (int p = 0; p < num_producers_; ++p) {
        Channel& c = ChannelAt(static_cast<size_t>(p), static_cast<size_t>(s));
        std::memset(static_cast<void*>(c.arena.get()), 0,
                    arena_items_ * sizeof(Item));
      }
    }
    workers_ready_.fetch_add(1, std::memory_order_release);

    AdaptiveBackoff backoff;
#if QF_METRICS
    uint64_t spins = 0;
#endif
    for (;;) {
      bool did_work = false;
      for (int p = 0; p < num_producers_; ++p) {
        if (DrainBurst(static_cast<size_t>(p), s, shard, state) > 0) {
          did_work = true;
        }
      }
      // Answer pending control requests promptly even under sustained
      // load; AnswerSlot itself gates fences on true all-ring emptiness.
      AnswerSlot(s, shard);
      if (did_work) {
        backoff.Reset();
        continue;
      }
      if (done_.load(std::memory_order_acquire)) {
        // The release store in Stop() ordered all prior pushes before
        // `done`; one more full drain pass and empty rings mean truly
        // done.
        bool residue = false;
        for (int p = 0; p < num_producers_; ++p) {
          if (DrainBurst(static_cast<size_t>(p), s, shard, state) > 0) {
            residue = true;
          }
        }
        if (residue) continue;
        break;
      }
      // Periodic flush so qf_pipeline_worker_spins_total is live during
      // long idle stretches, not just on shutdown.
      QF_OBS(if ((++spins & 4095) == 0) {
        obs::PipelineMetrics::Get().worker_spins.Add(4096);
      });
      if (backoff.ShouldPark()) {
        state.park.PreparePark();
        if (AnyWorkQueued(s) || done_.load(std::memory_order_acquire)) {
          state.park.CancelPark();
        } else {
          BumpRelaxed(state.parks);
          QF_OBS(obs::PipelineMetrics::Get().worker_parks.Add(1));
          state.park.Park();
        }
        backoff.Reset();
      }
    }
#if QF_METRICS
    if ((spins & 4095) != 0) {
      obs::PipelineMetrics::Get().worker_spins.Add(spins & 4095);
    }
    // Rounding/saturation tallies accumulated by this worker's inserts live
    // in its thread-local HotTally; drain them before the thread exits.
    obs::DrainTally();
#endif
  }

#if QF_METRICS
  void RecordOccupancy(int s, const SpscRing<SpanDesc>& ring) {
    shard_metrics_[static_cast<size_t>(s)].ring_occupancy.Record(
        ring.SizeApprox());
  }
#endif

  void ProcessSpan(int s, Channel& c, typename Sharded::Filter& shard,
                   WorkerState& state, const SpanDesc& desc) {
    const Item* arena = c.arena.get();
    const size_t begin = static_cast<size_t>(desc.begin) & arena_mask_;
    const size_t first = std::min<size_t>(desc.count, arena_items_ - begin);
    state.items.fetch_add(desc.count, std::memory_order_relaxed);
    state.batches.fetch_add(1, std::memory_order_relaxed);
#if QF_METRICS
    const uint64_t t0 = MonotonicNanos();
    obs::StageMetrics& stm = obs::StageMetrics::Get();
    // Per-span stage records are sampled (one decision covers both the
    // queue-wait and insert histograms for this span, so the pair stays
    // correlated); per-frame stages record every event.
    const bool stage_sample = obs::StageRecordSampleHit();
    if (desc.publish_ns32 != 0) {
      // u32 delta against the publish stamp; valid for waits < ~4.29 s.
      const uint32_t wait_ns =
          static_cast<uint32_t>(t0) - desc.publish_ns32;
      if (stage_sample) stm.queue_wait_ns.Record(wait_ns);
      obs::TraceRing& tr = obs::TraceRing::Global();
      if (tr.enabled() && obs::StageTraceSampleHit()) {
        tr.Emit(obs::TraceEvent::kQueueWait, static_cast<uint16_t>(s),
                t0 - wait_ns, wait_ns, desc.count);
      }
    }
#endif
    // A span that wraps the arena end becomes two InsertBatch calls;
    // chunking preserves bit-identity (insert_batch_test.cc).
    uint64_t reports = InsertSpan(s, shard, state, {arena + begin, first});
    if (first < desc.count) {
      reports += InsertSpan(s, shard, state, {arena, desc.count - first});
    }
    state.reports.fetch_add(reports, std::memory_order_relaxed);
#if QF_METRICS
    const uint64_t dur = MonotonicNanos() - t0;
    obs::ShardMetrics& sm = shard_metrics_[static_cast<size_t>(s)];
    sm.ingest_ns.Record(dur);
    sm.batch_items.Record(desc.count);
    if (stage_sample) stm.insert_ns.Record(dur);
    obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
    pm.items_processed.Add(desc.count);
    pm.batches.Add(1);
    obs::TraceRing::Global().Emit(obs::TraceEvent::kBatchProcess,
                                  static_cast<uint16_t>(s), t0, dur,
                                  desc.count);
#endif
  }

  template <typename Filter>
  uint64_t InsertSpan(int s, Filter& shard, WorkerState& state,
                      std::span<const Item> items) {
    if (items.empty()) return 0;
    if (collect_reported_keys_ || alerts_enabled_) {
      SpscRing<AlertRecord>* alerts =
          alerts_enabled_ && !alert_muted_[static_cast<size_t>(s)].load(
                                 std::memory_order_acquire)
              ? alert_rings_[static_cast<size_t>(s)].get()
              : nullptr;
      return shard.InsertBatch(
          items, shard.default_criteria(),
          [this, &state, alerts](size_t, const Item& item) {
            if (collect_reported_keys_) {
              state.reported_keys.push_back(item.key);
            }
            if (alerts != nullptr) {
              AlertRecord record{item.key, item.value, 0};
              // Reports are rare (outstanding keys only), so the detection
              // stamp costs one clock read per alert, not per item.
              QF_OBS(record.detect_ns = MonotonicNanos());
              if (!alerts->TryPush(record)) {
                state.alerts_dropped.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
    }
    return shard.InsertBatch(items);
  }

  Sharded* filter_;
  const size_t batch_size_;
  const size_t arena_items_;  // power of two, ≥ 2 * kMaxBatch
  const size_t arena_mask_;
  const int num_producers_;
  const bool collect_reported_keys_;
  const bool alerts_enabled_;
  const PlacementOptions placement_;

  // Producer blocks and the P×S channel matrix (channel p*S + s connects
  // producer p to shard s).
  std::vector<ProducerBlock> producers_;
  std::vector<Channel> channels_;

  // Per-shard alert rings (worker produces, serving layer consumes); empty
  // unless Options::alert_ring_records > 0.
  std::vector<std::unique_ptr<SpscRing<AlertRecord>>> alert_rings_;
  // Per-shard alert mute flags (SetAlertMuted); allocated with the rings.
  std::unique_ptr<std::atomic<bool>[]> alert_muted_;
#if QF_METRICS
  // Per-shard metric series; each entry is recorded only by its shard's
  // worker (occupancy/latency) — references resolve at construction so the
  // hot path never touches the registry.
  std::vector<obs::ShardMetrics> shard_metrics_;
#endif
  std::vector<WorkerState> workers_;
  // Control slots for Query()/Fence(); requesters post under
  // control_mutex_, workers answer.
  std::vector<ControlSlot> slots_;
  std::mutex control_mutex_;
  std::vector<std::thread> threads_;
  std::atomic<int> workers_ready_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> running_{false};
};

}  // namespace qf

#endif  // QUANTILEFILTER_PARALLEL_PIPELINE_H_
