// Kill-anywhere crash-injection harness for the durable serving layer
// (DESIGN.md §14).
//
// One trial = one full crash/recover cycle driven from a deterministic
// seed:
//
//   1. Fork a child that serves a QfServer over a WAL directory. The
//      parent learns the port through a pipe.
//   2. Load it with a seeded schedule of pipelined INGEST batches and
//      SIGKILL it at a seed-chosen point — or, in torn mode, let the
//      FsStorage torn-write shim cut a segment append mid-frame and
//      SIGKILL from inside the storage layer.
//   3. Recover the storage read-only in the parent (the same bytes the
//      restarted server will read) and build two oracles:
//        * a mirror ShardedQuantileFilter (checkpoint + tail replay), the
//          bit-identity oracle;
//        * when the log alone covers history (no background checkpoint),
//          an ExactDetector over the acked prefix, the semantic
//          oracle — acked batches must be a prefix of the recovered log,
//          per connection.
//   4. Fork a second child over the same directory, and require: QUERY
//      answers bit-identical to the mirror, kStats durability counters
//      consistent with the parent's scan, and the alert stream of a
//      deterministic post-recovery ingest phase bit-identical (per shard)
//      to the mirror's predicted report sequence.
//
// The harness never runs server threads in the forking process: servers
// live only in forked children, so it is safe from a single-threaded gtest
// parent and from tools/qf_crashtest. Not TSan-compatible (TSan and fork()
// do not mix); the ctest wiring keeps it out of the sanitizer label.

#ifndef QUANTILEFILTER_TESTING_CRASH_HARNESS_H_
#define QUANTILEFILTER_TESTING_CRASH_HARNESS_H_

#include <cstdint>
#include <string>

namespace qf::testing {

struct CrashTrialOptions {
  uint64_t seed = 1;
  /// Reactor threads in both server children. Each reactor gets its own
  /// ingest connection with a disjoint key range.
  int reactors = 1;
  int num_shards = 2;
  /// Arm the FsStorage torn-write shim: the crash happens mid-segment-
  /// append, exercising recovery's torn-tail truncation.
  bool arm_torn_write = false;
  /// Server-side background checkpoint cadence (0 = log-only recovery,
  /// which also enables the ExactDetector semantic oracle).
  uint64_t checkpoint_interval_items = 0;
  /// WAL directory; created if missing, wiped after the trial. Must not be
  /// shared between concurrent trials.
  std::string dir;
  /// Ingest batches sent before/at the kill point.
  size_t batches = 64;
};

struct CrashTrialResult {
  bool ok = false;
  std::string error;        // first failed assertion, for diagnostics
  uint64_t acked_batches = 0;
  uint64_t logged_items = 0;      // items the parent's read-only scan saw
  uint64_t replayed_records = 0;  // restarted server's kStats view
  uint32_t torn_truncations = 0;  // from the parent's read-only scan
  bool killed_by_shim = false;    // torn shim fired (vs parent SIGKILL)
};

/// Runs one trial; returns result.ok. Fails closed on any divergence
/// between the restarted server and the oracles.
bool RunCrashTrial(const CrashTrialOptions& options, CrashTrialResult* result);

}  // namespace qf::testing

#endif  // QUANTILEFILTER_TESTING_CRASH_HARNESS_H_
