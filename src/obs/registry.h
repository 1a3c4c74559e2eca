// MetricsRegistry: named counters, gauges and latency/value histograms with
// lock-free recording and on-demand merged snapshots.
//
// Recording design (the hot side):
//   * Every recording thread gets a small dense slot index (ThreadSlotIndex).
//   * A Counter owns kSlots cache-line-padded atomic cells; Add() is one
//     relaxed fetch_add on the calling thread's cell — no CAS, no sharing in
//     the common case. If more threads than slots exist, threads share cells
//     (still correct: relaxed atomic adds commute; only padding is lost).
//   * A Histogram owns kSlots lazily-allocated LogLinearHistograms published
//     with release stores; Record() touches only the caller's slab.
//   * A Gauge is a single padded atomic (gauges are set rarely).
//
// The registry itself (name -> metric) is mutex-protected and only touched
// at registration and snapshot time, never on the record path: Get* returns
// a stable reference that call sites cache. Metric names follow the
// `qf_<layer>_<name>` convention and may carry a Prometheus-style label set
// (`qf_pipeline_ingest_batch_ns{shard="3"}`); exporters split that back out
// (obs/export.h).
//
// Everything here is header-only on purpose: the QF_METRICS hooks in core
// headers (quantile_filter.h, pipeline.h) must not force a link dependency
// on the qf_obs library, which holds only the exporters.

#ifndef QUANTILEFILTER_OBS_REGISTRY_H_
#define QUANTILEFILTER_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/padding.h"
#include "common/time.h"
#include "obs/histogram.h"

namespace qf::obs {

/// Dense per-thread slot index used to stripe metric storage. Monotonically
/// assigned on first use per thread; never reused (retired threads leave
/// their cells behind, which snapshots keep summing — totals stay exact).
inline int ThreadSlotIndex() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Monotonic counter with per-thread striped cells.
class Counter {
 public:
  static constexpr size_t kSlots = 16;

  void Add(uint64_t n = 1) {
    cells_[static_cast<size_t>(ThreadSlotIndex()) & (kSlots - 1)]
        .value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  Padded<std::atomic<uint64_t>> cells_[kSlots];
};

/// Last-write-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.value.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.value.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const {
    return value_.value.load(std::memory_order_relaxed);
  }

 private:
  Padded<std::atomic<int64_t>> value_;
};

/// Log-linear histogram with per-thread striped slabs (~15 KB each,
/// allocated on a slot's first record).
class Histogram {
 public:
  static constexpr size_t kSlots = 8;

  Histogram() = default;
  ~Histogram() {
    for (auto& slot : slabs_) {
      delete slot.value.load(std::memory_order_acquire);
    }
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value, uint64_t n = 1) {
    auto& slot =
        slabs_[static_cast<size_t>(ThreadSlotIndex()) & (kSlots - 1)];
    LogLinearHistogram* h = slot.value.load(std::memory_order_acquire);
    if (h == nullptr) h = AllocateSlab(slot);
    h->Record(value, n);
  }

  /// Merged view across all slabs.
  HistogramData Merged() const {
    HistogramData out;
    for (const auto& slot : slabs_) {
      const LogLinearHistogram* h =
          slot.value.load(std::memory_order_acquire);
      if (h != nullptr) h->AccumulateInto(&out);
    }
    return out;
  }

 private:
  LogLinearHistogram* AllocateSlab(
      Padded<std::atomic<LogLinearHistogram*>>& slot) {
    auto* fresh = new LogLinearHistogram();
    LogLinearHistogram* expected = nullptr;
    // CAS because two threads sharing a slot (more threads than kSlots) can
    // race the first allocation; the loser records into the winner's slab.
    if (slot.value.compare_exchange_strong(expected, fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return expected;
  }

  Padded<std::atomic<LogLinearHistogram*>> slabs_[kSlots];
};

/// One merged snapshot of a registry (see MetricsRegistry::Snapshot).
struct CounterSample {
  std::string name, help;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name, help;
  int64_t value = 0;
};
struct HistogramSample {
  std::string name, help, unit;
  HistogramData data;
};
struct MetricsSnapshot {
  uint64_t wall_ns = 0;  // system clock, for humans and JSONL timestamps
  uint64_t mono_ns = 0;  // steady clock, for rate computation across polls
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// The sample called `name` in one section of a MetricsSnapshot
/// (`snap.counters`, `.gauges` or `.histograms`), or nullptr.
template <typename Samples>
auto FindSample(Samples& samples, std::string_view name)
    -> decltype(&samples[0]) {
  for (auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Cluster rollup (DESIGN.md §16): folds `from` into `*into`, matching
/// samples by name. Counters and gauges sum (gauges in this codebase are
/// occupancy-style — active connections, delivery lag — where the cluster
/// total is the meaningful aggregate); histograms merge bucket-wise, so
/// quantiles of the merged distribution stay exact at bucket resolution.
/// Samples only `from` carries are appended. `into`'s timestamps win: the
/// rollup is stamped by the process that assembled it, not by whichever
/// backend answered last.
inline void MergeSnapshotInto(const MetricsSnapshot& from,
                              MetricsSnapshot* into) {
  for (const CounterSample& c : from.counters) {
    if (CounterSample* mine = FindSample(into->counters, c.name)) {
      mine->value += c.value;
    } else {
      into->counters.push_back(c);
    }
  }
  for (const GaugeSample& g : from.gauges) {
    if (GaugeSample* mine = FindSample(into->gauges, g.name)) {
      mine->value += g.value;
    } else {
      into->gauges.push_back(g);
    }
  }
  for (const HistogramSample& h : from.histograms) {
    HistogramSample* mine = FindSample(into->histograms, h.name);
    if (mine == nullptr) {
      into->histograms.push_back(h);
      continue;
    }
    for (size_t i = 0; i < HistogramLayout::kNumBuckets; ++i) {
      const uint64_t n = h.data.bucket(i);
      if (n != 0) mine->data.AddBucket(i, n);
    }
    mine->data.AddTotals(h.data.count(), h.data.sum(), h.data.max());
  }
}

class MetricsRegistry {
 public:
  /// Process-wide registry used by the QF_METRICS instrumentation hooks.
  /// Tests that need isolation construct their own instances.
  static MetricsRegistry& Global() {
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
  }

  /// Returns the metric registered under `name`, creating it on first use.
  /// References stay valid for the registry's lifetime (entries live in
  /// deques and are never erased); call sites cache them.
  Counter& GetCounter(std::string_view name, std::string_view help = "") {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : counters_) {
      if (e.name == name) return e.metric;
    }
    return counters_.emplace_back(std::string(name), std::string(help))
        .metric;
  }

  Gauge& GetGauge(std::string_view name, std::string_view help = "") {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : gauges_) {
      if (e.name == name) return e.metric;
    }
    return gauges_.emplace_back(std::string(name), std::string(help)).metric;
  }

  Histogram& GetHistogram(std::string_view name, std::string_view help = "",
                          std::string_view unit = "") {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : histograms_) {
      if (e.name == name) return e.metric;
    }
    auto& entry = histograms_.emplace_back(std::string(name),
                                           std::string(help));
    entry.unit = unit;
    return entry.metric;
  }

  /// Merged view of every registered metric. Safe to call while other
  /// threads record: counter/histogram reads are relaxed, so the snapshot
  /// is a consistent-enough monitoring view, not a linearization point.
  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.wall_ns = WallNanos();
    snap.mono_ns = MonotonicNanos();
    snap.counters.reserve(counters_.size());
    for (const auto& e : counters_) {
      snap.counters.push_back({e.name, e.help, e.metric.Value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& e : gauges_) {
      snap.gauges.push_back({e.name, e.help, e.metric.Value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& e : histograms_) {
      snap.histograms.push_back({e.name, e.help, e.unit, e.metric.Merged()});
    }
    return snap;
  }

 private:
  template <typename MetricT>
  struct Entry {
    Entry(std::string n, std::string h) : name(std::move(n)), help(std::move(h)) {}
    std::string name, help;
    std::string unit;  // histograms only
    MetricT metric;
  };

  mutable std::mutex mu_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace qf::obs

#endif  // QUANTILEFILTER_OBS_REGISTRY_H_
