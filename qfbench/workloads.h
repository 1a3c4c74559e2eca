// The four qfbench workloads and the seeded inputs each one is driven by.
//
// Every workload's load comes from this one process. Inputs — the item
// trace, its exact ground truth, and the single-threaded sharded mirror's
// report stream and QUERY checksum — are built from the seed before any
// system under test exists, so neither setup time nor RSS growth counts
// them, and the system under test only ever sees the generated items.

#ifndef QFBENCH_WORKLOADS_H_
#define QFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/criteria.h"
#include "core/quantile_filter.h"
#include "stream/item.h"

namespace qfbench {

enum class SutKind { kEmbedded, kServer, kCluster };

struct WorkloadSpec {
  const char* name;
  SutKind kind;
  bool cloud_trace;      // Cloud-like (low skew) vs Internet-like (skewed)
  size_t items;          // trace length; every pass replays it on a fresh SUT
  size_t frame_items;    // items per INGEST frame / PushBatch call
  int ingest_conns;      // closed-loop connections (embedded: producers)
  size_t window_frames;  // closed-loop frames in flight per connection
  bool durable;          // WAL with fsync=group
  double open_rate;      // open-loop offered rate, items/s
  double query_rate;     // paced QUERY requests/s during the open loop
  bool closed_loop_queries;  // paced QUERY connection during the closed loop
};

/// Shards per system under test (each server, each cluster backend).
inline constexpr int kShards = 2;
/// Filter budget per server / per backend / for the embedded pipeline.
inline constexpr size_t kMemoryBytes = 1u << 20;
/// Keys per QUERY request (the trace's most frequent keys).
inline constexpr size_t kHotKeys = 64;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Filter options shared by every system under test and the mirror.
qf::QuantileFilter<>::Options FilterOptions();

struct MirrorReport {
  uint32_t item;  // index into the trace of the item that tipped the key
  uint64_t key;
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  qf::Criteria criteria;
  qf::Trace trace;
  /// Reports of a single-threaded ShardedQuantileFilter fed the trace in
  /// order, per shard, in detection order.
  std::vector<std::vector<MirrorReport>> mirror_reports;
  /// QUERY checksum over `support` from the same mirror after the trace.
  uint64_t mirror_checksum = 0;
  std::vector<uint64_t> support;   // distinct keys, first-seen order
  std::vector<uint64_t> hot_keys;  // kHotKeys most frequent keys
  std::unordered_set<uint64_t> truth;  // ExactDetector outstanding keys

  size_t frames() const {
    return (trace.size() + spec->frame_items - 1) / spec->frame_items;
  }
  std::span<const qf::Item> Frame(size_t f) const {
    const size_t b = f * spec->frame_items;
    const size_t e = std::min(trace.size(), b + spec->frame_items);
    return {trace.data() + b, e - b};
  }
  size_t FrameOf(size_t item) const { return item / spec->frame_items; }
  size_t mirror_report_count() const;
};

Inputs BuildInputs(const WorkloadSpec& spec, uint64_t seed);

/// FNV-1a over (qweight, is_candidate) answers, in key order.
class AnswerChecksum {
 public:
  void Add(int64_t qweight, bool is_candidate);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// F1 of the reported key set against the exact outstanding set.
double F1(const std::unordered_set<uint64_t>& reported,
          const std::unordered_set<uint64_t>& truth);

}  // namespace qfbench

#endif  // QFBENCH_WORKLOADS_H_
