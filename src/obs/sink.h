// MetricsSink: periodic snapshot export that external tools poll.
//
// A sink owns a background thread that takes a snapshot every `interval_ms`
// (from a callable: a registry's Snapshot(), or a server's Metrics(), which
// adds the server's own series) and
//   * appends one JSON line per snapshot to `jsonl_path` (the stream
//     tools/qf_top tails), and
//   * atomically rewrites `prom_path` with Prometheus text exposition
//     (write to `<path>.tmp`, rename), so a scraper never reads a torn
//     file.
// Either path may be empty to disable that format. WriteOnce() is the
// synchronous single-shot used by benches for their final snapshot.

#ifndef QUANTILEFILTER_OBS_SINK_H_
#define QUANTILEFILTER_OBS_SINK_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "obs/registry.h"

namespace qf::obs {

class MetricsSink {
 public:
  struct Options {
    std::string jsonl_path;  // appended, one JSON object per line
    std::string prom_path;   // atomically rewritten each tick
    int interval_ms = 1000;
  };

  using SnapshotFn = std::function<MetricsSnapshot()>;

  MetricsSink(SnapshotFn snapshot, Options options)
      : snapshot_(std::move(snapshot)), options_(std::move(options)) {}
  ~MetricsSink() { Stop(); }

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  /// Snapshots and writes both outputs now. Returns false if any configured
  /// path could not be written.
  bool WriteOnce();

  /// Starts the periodic writer thread. Idempotent.
  void Start();

  /// Writes one final snapshot and joins the writer. Idempotent.
  void Stop();

 private:
  void Loop();

  SnapshotFn snapshot_;
  Options options_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace qf::obs

#endif  // QUANTILEFILTER_OBS_SINK_H_
