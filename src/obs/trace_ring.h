// Fixed-size binary event-trace ring with a chrome://tracing JSON dump.
//
// The pipeline's stage timing (batch processing, batch shipping, ring
// stalls) is recorded as fixed 24-byte entries into a power-of-two ring.
// Emit() is wait-free: one relaxed fetch_add claims a slot, plain stores
// fill it, and the ring keeps the most recent `capacity` events. Disabled
// (the default) Emit is a single relaxed load and branch; call sites are
// additionally compiled out entirely when QF_METRICS=0.
//
// Dump contract: DumpChromeJson must run while no Emit is in flight (after
// IngestPipeline::Stop(), after worker joins). During concurrent emission
// the entry payloads are plain stores by design — a dump taken mid-run
// could read a torn entry, so the tools only dump at quiescence.

#ifndef QUANTILEFILTER_OBS_TRACE_RING_H_
#define QUANTILEFILTER_OBS_TRACE_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/time.h"

namespace qf::obs {

/// Event kinds recorded by the stack's instrumentation sites. Events 5+ are
/// the serving-path stage spans (DESIGN.md §15): reactors and workers emit
/// into the same ring with disjoint tid rows (see kReactorTidBase), so a
/// chrome://tracing load shows one request's decode -> queue-wait -> insert
/// -> wal-sync -> ack chain stitched across threads.
enum class TraceEvent : uint16_t {
  kBatchProcess = 0,  // worker: one applied span; arg = items
  kBatchShip = 1,     // dispatcher: one ring push; arg = items
  kRingStall = 2,     // dispatcher: one ring/arena stall; arg = shard
  kFlush = 3,         // dispatcher: Flush(); arg = shards flushed
  kSnapshot = 4,      // exporter: registry snapshot; arg = metrics
  kFrameDecode = 5,   // reactor: INGEST frame decode + stage; arg = items
  kQueueWait = 6,     // worker: span publish -> pop wait; arg = items
  kWalSync = 7,       // reactor: WAL group-commit sync; arg = acks released
  kAckFlush = 8,      // reactor: deferred-ack release; arg = ack bytes
  kAlertDeliver = 9,  // reactor 0: alert broadcast; arg = subscribers
};

/// Reactor emissions use tid = kReactorTidBase + reactor index so their
/// trace rows never collide with worker rows (tid = shard index).
inline constexpr uint16_t kReactorTidBase = 256;

inline const char* TraceEventName(TraceEvent e) {
  switch (e) {
    case TraceEvent::kBatchProcess: return "batch_process";
    case TraceEvent::kBatchShip: return "batch_ship";
    case TraceEvent::kRingStall: return "ring_stall";
    case TraceEvent::kFlush: return "flush";
    case TraceEvent::kSnapshot: return "snapshot";
    case TraceEvent::kFrameDecode: return "frame_decode";
    case TraceEvent::kQueueWait: return "queue_wait";
    case TraceEvent::kWalSync: return "wal_sync";
    case TraceEvent::kAckFlush: return "ack_flush";
    case TraceEvent::kAlertDeliver: return "alert_deliver";
  }
  return "unknown";
}

/// One recorded event. `dur_ns` saturates at ~4.29 s — longer spans are
/// clamped, which chrome://tracing renders fine for pipeline-scale events.
struct TraceEntry {
  uint64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint16_t event = 0;
  uint16_t tid = 0;  // shard / logical thread id, becomes the trace row
  uint64_t arg = 0;
};

class TraceRing {
 public:
  static TraceRing& Global() {
    static TraceRing* ring = new TraceRing();
    return *ring;
  }

  /// Allocates (or reuses) storage for ~`min_capacity` entries and starts
  /// accepting events. Not thread-safe against concurrent Emit.
  void Enable(size_t min_capacity = size_t{1} << 14) {
    const size_t cap = FloorPow2(min_capacity < 2 ? 2 : min_capacity);
    if (entries_.size() != cap) {
      entries_.assign(cap, TraceEntry{});
      mask_ = cap - 1;
    }
    next_.store(0, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }

  /// Stops accepting events; recorded entries remain dumpable.
  void Disable() { enabled_.store(false, std::memory_order_release); }

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void Emit(TraceEvent event, uint16_t tid, uint64_t start_ns,
            uint64_t dur_ns, uint64_t arg) {
    if (!enabled()) return;
    const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    TraceEntry& e = entries_[i & mask_];
    e.start_ns = start_ns;
    e.dur_ns = dur_ns > UINT32_MAX ? UINT32_MAX
                                   : static_cast<uint32_t>(dur_ns);
    e.event = static_cast<uint16_t>(event);
    e.tid = tid;
    e.arg = arg;
  }

  /// Number of valid entries currently held (<= capacity).
  size_t CountEntries() const {
    const uint64_t n = next_.load(std::memory_order_acquire);
    return n < entries_.size() ? static_cast<size_t>(n) : entries_.size();
  }

  size_t capacity() const { return entries_.size(); }

  /// Total events emitted since Enable (>= CountEntries once wrapped).
  uint64_t TotalEmitted() const {
    return next_.load(std::memory_order_acquire);
  }

  /// Copies the valid entries out, oldest first. Quiescence contract as for
  /// DumpChromeJson.
  std::vector<TraceEntry> Entries() const;

  /// Writes a chrome://tracing-loadable JSON trace ("traceEvents" array of
  /// complete "X" events; tid = shard row). Returns false on I/O error.
  /// Must run at quiescence (no concurrent Emit).
  bool DumpChromeJson(const std::string& path) const;

 private:
  std::vector<TraceEntry> entries_;
  size_t mask_ = 0;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> enabled_{false};
};

}  // namespace qf::obs

#endif  // QUANTILEFILTER_OBS_TRACE_RING_H_
