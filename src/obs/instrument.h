// Compile-time instrumentation gate and the metric bundles used by the
// QuantileFilter stack's hot paths.
//
// QF_METRICS (CMake option, default ON) selects at compile time whether the
// hot paths carry instrumentation:
//   * QF_METRICS=1 — filter-health counters flush from the per-instance
//     Stats every kMetricsFlushItems inserts, the pipeline records
//     per-shard latency/occupancy histograms per batch, and the trace ring
//     can capture stage timing. Budget: <= 3% single-insert overhead
//     (bench/micro_ops.cc + tools/check_metrics_overhead.sh enforce it).
//   * QF_METRICS=0 — the QF_OBS() macro expands to nothing, so the hot
//     paths contain no metrics code at all: no loads, no branches, no
//     symbol references. The obs library itself still builds (exporters
//     and tools are always available; they just see empty registries).
//
// Naming convention: `qf_<layer>_<name>` with Prometheus-style unit and
// `_total` suffixes; per-shard series carry a `{shard="N"}` label embedded
// in the registry name (DESIGN.md §10 documents the full taxonomy).

#ifndef QUANTILEFILTER_OBS_INSTRUMENT_H_
#define QUANTILEFILTER_OBS_INSTRUMENT_H_

#ifndef QF_METRICS
#define QF_METRICS 1
#endif

#if QF_METRICS
#define QF_OBS(...) \
  do {              \
    __VA_ARGS__;    \
  } while (0)
#else
// Arguments are dropped unexpanded: with metrics off the operands are never
// evaluated, never odr-used, and generate no code.
#define QF_OBS(...) \
  do {              \
  } while (0)
#endif

#if QF_METRICS

#include <cstdint>
#include <string>

#include "obs/registry.h"
#include "obs/trace_ring.h"

namespace qf::obs {

/// Filter-health counters, aggregated across every QuantileFilter instance
/// in the process (shards sum naturally). Flushed from the per-instance
/// Stats at batch granularity, never incremented per item.
struct FilterMetrics {
  Counter& items;
  Counter& reports;
  Counter& candidate_hits;
  Counter& admissions;  // == occupied candidate slots (slots never vacate)
  Counter& vague_inserts;
  Counter& swaps;
  Counter& candidate_slots;  // capacity, added once per filter construction
  Counter& rounding_up;      // probabilistic-rounding tallies
  Counter& rounding_down;
  Counter& vague_saturations;  // estimate pinned at the counter-type max

  static FilterMetrics& Get() {
    static FilterMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new FilterMetrics{
          r.GetCounter("qf_filter_items_total", "items inserted"),
          r.GetCounter("qf_filter_reports_total",
                       "outstanding-key reports emitted"),
          r.GetCounter("qf_filter_candidate_hits_total",
                       "items resolved in the candidate part"),
          r.GetCounter("qf_filter_candidate_admissions_total",
                       "items admitted to empty candidate slots (equals "
                       "occupied slots; slots never vacate between resets)"),
          r.GetCounter("qf_filter_vague_inserts_total",
                       "items routed to the vague part"),
          r.GetCounter("qf_filter_election_swaps_total",
                       "candidate-election swaps"),
          r.GetCounter("qf_filter_candidate_slots_total",
                       "candidate slot capacity across constructed filters"),
          r.GetCounter("qf_filter_rounding_up_total",
                       "probabilistic roundings that rounded up"),
          r.GetCounter("qf_filter_rounding_down_total",
                       "probabilistic roundings that rounded down"),
          r.GetCounter("qf_filter_vague_saturation_total",
                       "vague estimates pinned at the counter max"),
      };
    }();
    return *m;
  }
};

/// Thread-local scratch tallies for events that fire inside leaf helpers
/// (probabilistic rounding in qweight.h, saturation checks in vague_part.h)
/// where per-event atomic counters would be too hot. Plain increments;
/// drained into FilterMetrics by the owning filter's periodic flush.
struct HotTally {
  uint64_t rounding_up = 0;
  uint64_t rounding_down = 0;
  uint64_t vague_saturations = 0;
};

inline HotTally& Tally() {
  thread_local HotTally tally;
  return tally;
}

/// Adds the calling thread's tallies into the global counters and zeroes
/// them. Cheap no-op when nothing accumulated.
inline void DrainTally() {
  HotTally& t = Tally();
  if (t.rounding_up != 0) {
    FilterMetrics::Get().rounding_up.Add(t.rounding_up);
    t.rounding_up = 0;
  }
  if (t.rounding_down != 0) {
    FilterMetrics::Get().rounding_down.Add(t.rounding_down);
    t.rounding_down = 0;
  }
  if (t.vague_saturations != 0) {
    FilterMetrics::Get().vague_saturations.Add(t.vague_saturations);
    t.vague_saturations = 0;
  }
}

/// Per-shard pipeline series (registered on first pipeline construction
/// for a given shard index; later pipelines reuse the same series).
struct ShardMetrics {
  Histogram& ingest_ns;      // per-span apply latency (all its chunks)
  Histogram& batch_items;    // items per applied span
  Histogram& ring_occupancy; // ring occupancy (spans) sampled at pop
};

inline ShardMetrics ShardMetricsFor(int shard) {
  MetricsRegistry& r = MetricsRegistry::Global();
  const std::string label = "{shard=\"" + std::to_string(shard) + "\"}";
  return ShardMetrics{
      r.GetHistogram("qf_pipeline_ingest_batch_ns" + label,
                     "per-span shard ingest latency", "ns"),
      r.GetHistogram("qf_pipeline_batch_items" + label,
                     "items per applied span (one per flush)", "items"),
      r.GetHistogram("qf_pipeline_ring_occupancy" + label,
                     "SPSC ring occupancy in spans, sampled at pop",
                     "batches"),
  };
}

/// Ingest-path stage latency histograms (DESIGN.md §15): one histogram per
/// stage of a request's life, recorded where the stage ends. Every stage
/// but the WAL sync is sampled with SampleHit: the per-frame stages (decode,
/// arena push, and ack, whose append stamp is taken on sampled frames only)
/// 1 in StageFrameSampling::kEvery INGEST frames per reactor, the per-span
/// stages (queue wait, insert) 1 in StageSpanSampling::kEvery spans per
/// worker. Their `_count` is therefore the number of sampled events; exact
/// frame counts come from `qf_net_frames_total`. WAL sync records every sync.
struct StageMetrics {
  Histogram& decode_ns;      // reactor: INGEST header parse + payload stage
  Histogram& arena_push_ns;  // reactor: arena scatter + span publish
  Histogram& queue_wait_ns;  // span publish -> worker pop (cross-thread)
  Histogram& insert_ns;      // worker: chunked InsertBatch over one span
  Histogram& wal_sync_ns;    // reactor: group-commit fdatasync duration
  Histogram& ack_ns;         // WAL append -> ack bytes queued to the socket

  static StageMetrics& Get() {
    static StageMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new StageMetrics{
          r.GetHistogram("qf_stage_decode_ns",
                         "reactor INGEST frame decode + payload staging, "
                         "1 in 16 frames",
                         "ns"),
          r.GetHistogram("qf_stage_arena_push_ns",
                         "reactor arena scatter + span publish, 1 in 16 "
                         "frames",
                         "ns"),
          r.GetHistogram("qf_stage_queue_wait_ns",
                         "span publish to worker pop (ring/queue wait), "
                         "1 in 4 spans",
                         "ns"),
          r.GetHistogram("qf_stage_insert_ns",
                         "worker InsertBatch latency per span, 1 in 4 "
                         "spans",
                         "ns"),
          r.GetHistogram("qf_stage_wal_sync_ns",
                         "WAL group-commit sync duration", "ns"),
          r.GetHistogram("qf_stage_ack_ns",
                         "WAL append to ack bytes queued (deferred-ack "
                         "latency), 1 in 16 frames",
                         "ns"),
      };
    }();
    return *m;
  }
};

/// Sampling policies, one per kind of site. A policy names its rate, and
/// SampleHit keys its countdown on the policy, so two policies never share a
/// cadence even when their rates are equal.

/// TraceRing stage-span emission: a ring event is dearer than a record,
/// and chrome://tracing wants a trickle.
struct StageTraceSampling {
  static constexpr uint32_t kEvery = 64;
};

/// Per-span stage histograms (queue wait, insert). Spans are flush-sized,
/// but a producer that flushes every few items makes spans that small, and
/// recording every span would then cost ~2 histogram Records per handful of
/// ~15ns inserts. Sampling 1-in-4 bounds that worst case.
struct StageSpanSampling {
  static constexpr uint32_t kEvery = 4;
};

/// Per-INGEST-frame stage timing on the reactor (decode, arena push, frame
/// latency, and the deferred-ack stamp). A 32-item frame does too little
/// work to amortize four clock reads and three histogram Records; timed on
/// every frame they cost ~0.25 us on the thread that limits serving, and
/// cut qfbench serve-mixed throughput by about a quarter.
struct StageFrameSampling {
  static constexpr uint32_t kEvery = 16;
};

/// Uniform 1-in-N sampling decision for `Policy` (N = Policy::kEvery): the
/// first call on a thread hits, then every Nth call after it. One
/// thread_local countdown per policy and thread, so every thread contributes
/// its own steady trickle, and all sites of one policy share its cadence.
/// Sampling a latency distribution uniformly leaves its percentiles unbiased
/// (DESIGN.md §15.2).
template <typename Policy>
inline bool SampleHit() {
  static_assert(Policy::kEvery > 0, "sampling rate must be positive");
  thread_local uint32_t skip = 0;
  if (skip != 0) {
    --skip;
    return false;
  }
  skip = Policy::kEvery - 1;
  return true;
}

/// Pipeline-wide counters.
struct PipelineMetrics {
  Counter& items_dispatched;
  Counter& items_processed;  // items applied, counted per insert chunk
  Counter& batches;          // spans applied (one per flush and shard)
  Counter& ring_full_waits;  // dispatcher stall episodes (ring or arena)
  Counter& worker_spins;     // consumer empty-ring poll rounds
  Counter& worker_parks;     // worker futex sleeps (empty rings, no control)
  Counter& producer_parks;   // dispatcher futex sleeps (backpressure)
  Counter& handoff_wakes;    // futex wakes delivered to a parked thread

  static PipelineMetrics& Get() {
    static PipelineMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new PipelineMetrics{
          r.GetCounter("qf_pipeline_items_dispatched_total",
                       "items accepted by Push"),
          r.GetCounter("qf_pipeline_items_processed_total",
                       "items applied by workers"),
          r.GetCounter("qf_pipeline_batches_total",
                       "spans applied by workers (one per flush and shard)"),
          r.GetCounter("qf_pipeline_ring_full_waits_total",
                       "dispatcher stall episodes on a full ring or arena"),
          r.GetCounter("qf_pipeline_worker_spins_total",
                       "worker empty-ring poll rounds before parking"),
          r.GetCounter("qf_pipeline_worker_parks_total",
                       "worker futex sleeps on an empty shard"),
          r.GetCounter("qf_pipeline_producer_parks_total",
                       "dispatcher futex sleeps under shard backpressure"),
          r.GetCounter("qf_pipeline_handoff_wakes_total",
                       "futex wakes delivered to parked pipeline threads"),
      };
    }();
    return *m;
  }
};

}  // namespace qf::obs

#endif  // QF_METRICS

#endif  // QUANTILEFILTER_OBS_INSTRUMENT_H_
