// Durable checkpoint store (DESIGN.md §14.3).
//
// A checkpoint captures filter state at a WAL position so boot replay only
// re-drives the log tail past it. Every checkpoint is full: the whole
// ShardedQuantileFilter::SerializeState "QFS4"/"QSH2" blob plus each
// shard's RNG words. The filter is fixed-size arrays, so a shard costs its
// whole memory budget however few items touched it; a per-shard delta
// would only ever save the shards no item reached.
//
// File layout (one file per checkpoint, written atomically):
//
//   ckpt-%016llx.qfck = WrapCrc({u32 "QFCP", u32 version=1, u64 id,
//                                u64 parent_id=0, u64 wal_gen,
//                                u64 covered_seq, u8 kind=0,
//                                u32 rng_shards,
//                                rng_shards x (4 x u64 rng),
//                                SerializeState blob})
//
// parent_id and kind are always 0. Older builds also wrote kind-1 delta
// files; the reader rejects them like any corrupt file.
//
// The per-shard RNG words exist because SerializeState deliberately
// excludes the probabilistic-rounding generator (its blobs stay
// byte-compatible across builds): replaying a WAL tail on top of a restored
// checkpoint only reproduces the pre-crash filter bit-for-bit if the
// generator resumes mid-sequence too (core/quantile_filter.h GetRngState).
//
// LoadNewest returns the newest checkpoint that validates; a corrupt top
// falls back to the next lower id with a warning (recovery then fails
// closed anyway if retention already reaped the log segments that fallback
// would need — never a silent partial restore).

#ifndef QUANTILEFILTER_DURABLE_CHECKPOINT_H_
#define QUANTILEFILTER_DURABLE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "durable/storage.h"

namespace qf::durable {

inline constexpr uint32_t kCheckpointMagic = 0x50434651;  // "QFCP"
inline constexpr uint32_t kCheckpointVersion = 1;

/// Checkpoint file name for an id ("ckpt-%016x.qfck").
std::string CheckpointName(uint64_t id);
bool ParseCheckpointName(const std::string& name, uint64_t* id);

/// One filter's xoshiro256** snapshot (QuantileFilter::GetRngState).
using RngState = std::array<uint64_t, 4>;

/// Every shard's RNG words, in shard order — captured with the blob they
/// accompany (the filter must be quiescent).
template <typename ShardedFilter>
std::vector<RngState> GatherRngStates(const ShardedFilter& filter) {
  std::vector<RngState> out(static_cast<size_t>(filter.num_shards()));
  for (int s = 0; s < filter.num_shards(); ++s) {
    filter.shard(s).GetRngState(out[static_cast<size_t>(s)].data());
  }
  return out;
}

/// Result of LoadNewest. `found == false` with `ok == true` means a clean
/// slate (fresh directory).
struct LoadedCheckpoint {
  bool ok = false;
  bool found = false;
  std::string error;
  std::string warning;  // corrupt tops skipped during fallback
  uint64_t id = 0;
  uint64_t wal_gen = 0;
  uint64_t covered_seq = 0;
  std::vector<uint8_t> state;  // SerializeState blob
  std::vector<RngState> rng;   // per shard, captured with `state`
};

class CheckpointStore {
 public:
  explicit CheckpointStore(Storage* storage) : storage_(storage) {}

  bool Write(uint64_t id, uint64_t wal_gen, uint64_t covered_seq,
             const std::vector<uint8_t>& state,
             const std::vector<RngState>& rng);

  LoadedCheckpoint LoadNewest();

  /// Deletes checkpoints with id < keep_from_id.
  void Retain(uint64_t keep_from_id);
  void RemoveAll();

 private:
  Storage* storage_;
};

}  // namespace qf::durable

#endif  // QUANTILEFILTER_DURABLE_CHECKPOINT_H_
