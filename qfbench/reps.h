// Systems under test and the repetitions that feed them load.
//
// One repetition ("rep") boots a fresh system under test, replays the
// workload's whole trace through it once — closed loop or open loop —
// checks every answer it can against the mirror and ExactDetector, and
// tears it down. Each rep is independent, so the trace never has to be
// longer than what one pass needs, and setup time is sampled once per rep.

#ifndef QFBENCH_REPS_H_
#define QFBENCH_REPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/coordinator.h"
#include "core/sharded_filter.h"
#include "harness.h"
#include "net/server.h"
#include "obs/registry.h"
#include "parallel/pipeline.h"
#include "workloads.h"

namespace qfbench {

using Sharded = qf::ShardedQuantileFilter<>;
using Pipeline = qf::IngestPipeline<>;

/// A booted system under test: an in-process 2-shard IngestPipeline, a
/// 1-reactor QfServer (optionally durable), or a 1-reactor Coordinator over
/// two 2-shard backends (2 slots).
struct Sut {
  SutKind kind = SutKind::kEmbedded;
  std::unique_ptr<Sharded> filter;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<ScratchDir> wal_dir;
  std::vector<std::unique_ptr<qf::net::QfServer>> servers;
  std::unique_ptr<qf::cluster::Coordinator> coordinator;
  uint16_t port = 0;          // where clients ingest (0 for embedded)
  uint16_t metrics_port = 0;  // a server whose kMetrics covers the SUT
  double setup_s = 0.0;       // construction until it first accepts ingest
  double ready_s = 0.0;       // cluster: coordinator start until all kReady

  Sut() = default;
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  ~Sut();
};

std::unique_ptr<Sut> BootSut(SutKind kind, bool durable,
                             const qf::Criteria& criteria);

/// How one rep drives its system under test.
struct RepConfig {
  SutKind kind = SutKind::kEmbedded;
  bool durable = false;
  int conns = 1;
  size_t window = 8;
  bool closed_loop_queries = false;
  bool sample_ledger = false;  // poll the coordinator's ledger-depth gauge
};

RepConfig ConfigFor(const WorkloadSpec& spec);

struct RepResult {
  double setup_s = 0.0, ready_s = 0.0, rss_mb = 0.0, f1 = 0.0;
  uint64_t attempted = 0;  // items offered
  uint64_t failed = 0;     // dropped + missing alerts
  uint64_t items = 0;
  // Closed loop.
  double items_per_s = 0.0;
  Samples send_us;  // SendIngest call per frame
  Samples rtt_us;   // send start to ack, per frame (window included)
  // Open loop (intended-send-time based).
  Samples ack_us, alert_us, query_us, query_rtt_us, late_us;
  double backlog_growth = 0.0;  // items unacked late minus early
  uint64_t worker_parks = 0;
  // Server-side reads, both kinds.
  qf::obs::MetricsSnapshot before, after;
  uint64_t alerts_dropped = 0, slow_disconnects = 0;
  double ledger_depth_max = 0.0, backend_skew = 0.0;
};

RepResult RunClosedRep(const Inputs& in, const RepConfig& cfg);
RepResult RunOpenRep(const Inputs& in, const RepConfig& cfg);

/// Synchronous (window 1) ingest round trips over the first `frames`
/// frames on a fresh system of `kind`: the per-hop RTT baseline.
Samples WindowOneRtts(const Inputs& in, SutKind kind, size_t frames);

}  // namespace qfbench

#endif  // QFBENCH_REPS_H_
