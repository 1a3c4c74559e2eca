// Boot-time recovery: newest valid checkpoint + WAL tail replay
// (DESIGN.md §14).
//
// Recovery state machine:
//
//   1. LoadNewest() resolves the newest checkpoint that validates (CRC +
//      id/name + format checks); a corrupt top falls back to the next id.
//   2. ScanWal() verifies every log segment against the checkpoint's WAL
//      generation and covered seq: CRC per frame, name==header first_seq,
//      global seq contiguity, no gap after the covered seq. A torn trailing
//      frame in the final segment is truncated (crash residue); any other
//      inconsistency fails closed.
//   3. The caller restores the checkpoint into a fresh filter
//      (ApplyCheckpoint) and re-drives `tail` through the normal pipeline
//      producers — single-hash scheme 3 makes that replay bit-identical to
//      the pre-crash insert sequence.
//
// Recover() is pure with respect to serving state: the crash harness runs
// it read-only (repair_torn_tail=false) to build its acked-prefix oracle
// from the same bytes the restarted server will read.

#ifndef QUANTILEFILTER_DURABLE_RECOVERY_H_
#define QUANTILEFILTER_DURABLE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durable/checkpoint.h"
#include "durable/log.h"
#include "durable/storage.h"
#include "stream/item.h"

namespace qf::durable {

struct RecoverOptions {
  /// Physically truncate a torn trailing frame (server boot). The oracle
  /// pass leaves the bytes untouched and just stops at the tear.
  bool repair_torn_tail = false;
};

struct Recovered {
  bool ok = false;
  std::string error;    // fail-closed reason when !ok
  std::string warning;  // skipped corrupt checkpoint tops

  bool had_checkpoint = false;
  uint64_t wal_gen = 1;        // generation the WAL writer must continue in
  uint64_t covered_seq = 0;    // checkpoint's WAL coverage
  uint64_t next_seq = 1;       // where the WAL writer resumes
  uint64_t checkpoint_id = 0;  // restored checkpoint id (0 = none)

  std::vector<uint8_t> state;  // checkpoint SerializeState blob
  std::vector<RngState> rng;   // per shard, with `state`

  std::vector<Item> tail;     // records past covered_seq, in log order
  uint64_t tail_records = 0;
  uint32_t segments_scanned = 0;
  uint32_t torn_truncations = 0;
};

/// Resolves the checkpoint + scans the log under the rules above.
/// `ok == false` means boot must refuse (fail closed), never serve a
/// partial state.
Recovered Recover(Storage& storage, const RecoverOptions& options);

/// Restores the recovered checkpoint (blob, then per-shard RNG words) into
/// a fresh sharded filter; a no-op without one. Any failure aborts with
/// the filter reset (no mixed state). The template keeps qf_durable
/// independent of the sketch instantiation; `ShardedFilter` is
/// ShardedQuantileFilter<...>.
template <typename ShardedFilter>
bool ApplyCheckpoint(const Recovered& recovered, ShardedFilter* filter,
                     std::string* error) {
  if (!recovered.had_checkpoint) return true;
  if (!filter->RestoreState(recovered.state)) {
    *error = "checkpoint rejected by RestoreState";
    return false;
  }
  // SerializeState blobs exclude the probabilistic-rounding generator; the
  // checkpoint carries it separately so WAL-tail replay resumes the draw
  // sequence exactly where the crashed filter left off.
  if (recovered.rng.size() != static_cast<size_t>(filter->num_shards())) {
    filter->Reset();
    *error = "checkpoint RNG state count mismatches shard count";
    return false;
  }
  for (size_t s = 0; s < recovered.rng.size(); ++s) {
    filter->shard(static_cast<int>(s)).SetRngState(recovered.rng[s].data());
  }
  return true;
}

}  // namespace qf::durable

#endif  // QUANTILEFILTER_DURABLE_RECOVERY_H_
