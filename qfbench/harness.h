// Measurement plumbing shared by every qfbench workload: clocks, sample
// summaries, failure reporting, the watchdog that bounds every blocking
// wait, the span tracer, and metrics-snapshot deltas.
//
// Nothing here instruments the library: spans are recorded only around the
// benchmark's own calls into each layer's public API.

#ifndef QFBENCH_HARNESS_H_
#define QFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"
#include "obs/registry.h"

namespace qfbench {

using qf::MonotonicNanos;

/// A failed correctness check or a wedged system under test. Caught in
/// main, printed as "workload <w>: check '<check>' failed: <detail>", and
/// turned into a non-zero exit without a result line.
struct CheckFailure : std::runtime_error {
  CheckFailure(const std::string& check, const std::string& detail)
      : std::runtime_error(detail), check(check) {}
  std::string check;
};

[[noreturn]] inline void Fail(const std::string& check,
                              const std::string& detail) {
  throw CheckFailure(check, detail);
}

/// Sets this thread's timer slack to 1 ns, so its sleeps end on time.
/// Only load-generator threads call it; the system under test keeps the
/// default slack it runs with in production.
void UseFineTimerSlack();

/// Sleeps until ~20us before `t_ns`, then yields until it passes. Call
/// UseFineTimerSlack() on the thread first.
void SleepUntil(uint64_t t_ns);

/// Sleep length before `t_ns` that still leaves a short spin (0 when the
/// caller should just spin).
uint64_t SleepBudgetNs(uint64_t t_ns);

/// Unsorted samples with order statistics.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Sum() const;

 private:
  std::vector<double> v_;
};

/// Median of a small list of per-repetition values.
double MedianOf(std::vector<double> v);

/// Resident set size of this process, in MiB.
double RssMb();

/// Bounds every phase of a run. A phase that outlives its deadline means a
/// wedged system under test: the watchdog names the workload and phase on
/// stderr, removes the registered scratch directories, and exits non-zero.
class Watchdog {
 public:
  static Watchdog& Get();
  void Start(const std::string& workload);
  void Phase(const std::string& name, double seconds);
  void AddScratchDir(const std::string& dir);
  void RemoveScratchDir(const std::string& dir);
  void Stop();

 private:
  void Run();
  std::mutex mu_;
  std::string workload_, phase_;
  uint64_t deadline_ns_ = 0;
  std::vector<std::string> dirs_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Scope guard for Watchdog::Phase.
struct PhaseScope {
  PhaseScope(const std::string& name, double seconds) {
    Watchdog::Get().Phase(name, seconds);
  }
};

/// A scratch directory under the checkout's .bench_out/tmp, removed on
/// destruction and by the watchdog on a deadline exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// In-memory span recorder. Spans carry a frame id (one per ingest frame)
/// and a parent span name; they are kept per thread and written out when
/// the run ends, never while it measures.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* parent;  // nullptr for a root span
    uint64_t frame;
    uint64_t start_ns, end_ns;
    uint32_t tid;
  };

  static Tracer& Get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void Record(const char* name, const char* parent, uint64_t frame,
              uint64_t start_ns, uint64_t end_ns);
  /// Moves every thread's spans out of the recorder.
  std::vector<Span> Collect();

  /// chrome://tracing JSON (complete events, frame id in args).
  static bool WriteChromeJson(const std::vector<Span>& spans,
                              const std::string& path, size_t max_events);
  /// Per-span-name self time: duration minus the part of it covered by
  /// child spans of the same frame. Printed as a table.
  static std::string SelfTimeTable(const std::vector<Span>& spans);

 private:
  std::atomic<bool> enabled_{false};
};

/// Times a scope as a span when tracing is on.
class SpanScope {
 public:
  SpanScope(const char* name, const char* parent, uint64_t frame)
      : name_(name), parent_(parent), frame_(frame),
        start_(Tracer::Get().enabled() ? MonotonicNanos() : 0) {}
  ~SpanScope() {
    if (start_ != 0) {
      Tracer::Get().Record(name_, parent_, frame_, start_, MonotonicNanos());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  const char* parent_;
  uint64_t frame_;
  uint64_t start_;
};

/// Counter / gauge / histogram reads from a metrics snapshot, and deltas
/// between two snapshots of the process-wide registry.
uint64_t CounterValue(const qf::obs::MetricsSnapshot& s,
                      const std::string& name);
int64_t GaugeValue(const qf::obs::MetricsSnapshot& s, const std::string& name);
/// Quantile (in the histogram's unit) of the samples recorded between
/// `before` and `after`; 0 when none were.
double HistogramDeltaQuantile(const qf::obs::MetricsSnapshot& before,
                              const qf::obs::MetricsSnapshot& after,
                              const std::string& name, double q);

}  // namespace qfbench

#endif  // QFBENCH_HARNESS_H_
