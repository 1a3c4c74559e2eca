// Cluster topology: the epoch-versioned slot-ownership table behind the
// qf_cluster coordinator (DESIGN.md §16).
//
// A "slot" IS a backend shard index: the cluster's num_slots must equal
// every backend's --shards, and every backend must be booted with identical
// filter geometry (--shards/--memory/--seed/--layout). Key -> slot routing
// reuses ShardedQuantileFilter::ShardFor's exact hash reduction, so shard
// j's item substream — and therefore its sketch state, RNG trajectory and
// QUERY answers — is bit-identical wherever slot j happens to live. That
// identity is what lets migration move a slot wholesale (checkpoint blob +
// WAL catch-up) and what makes the cluster answer-equivalent to one big
// single-process filter fed the same stream.
//
// The table itself is a plain value type owned by the coordinator's event
// loop; it is not thread-safe. Migration flips ownership through the loop's
// command queue, never concurrently.

#ifndef QUANTILEFILTER_CLUSTER_TOPOLOGY_H_
#define QUANTILEFILTER_CLUSTER_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "net/protocol.h"

namespace qf::cluster {

/// Key -> slot. Must mirror ShardedQuantileFilter::ShardFor — same
/// dedicated hash seed, same fast-range reduction — or cluster answers
/// diverge from the single-process oracle.
inline uint32_t SlotForKey(uint64_t key, uint32_t num_slots) {
  return static_cast<uint32_t>(
      FastRange64(HashKey(key, 0x5A4DULL), num_slots));
}

/// Splits "host:port". Fails (returns false, outputs untouched) on a
/// missing colon, empty host, or a port outside [1, 65535].
bool SplitHostPort(const std::string& addr, std::string* host,
                   uint16_t* port);

/// Parses a migration spec "SLOT:BACKEND" (qf_cluster --migrate): two
/// unsigned decimal numbers that each fit uint32_t, split by one colon.
/// Fails (returns false, outputs untouched) on anything else — a missing or
/// extra colon, an empty side, a sign, trailing characters, or overflow.
bool ParseMigrateSpec(std::string_view spec, uint32_t* slot,
                      uint32_t* backend);

/// Slot -> backend ownership with an epoch that bumps on every flip.
class Topology {
 public:
  Topology() = default;

  /// Initial placement is round-robin: slot s -> s % num_backends, so a
  /// fresh cluster is balanced without any migration.
  Topology(std::vector<std::string> backend_addrs, uint32_t num_slots)
      : addrs_(std::move(backend_addrs)) {
    owner_.resize(num_slots);
    for (uint32_t s = 0; s < num_slots; ++s) {
      owner_[s] = s % static_cast<uint32_t>(addrs_.size());
    }
  }

  uint32_t num_slots() const { return static_cast<uint32_t>(owner_.size()); }
  uint32_t num_backends() const {
    return static_cast<uint32_t>(addrs_.size());
  }
  uint64_t epoch() const { return epoch_; }
  uint32_t OwnerOf(uint32_t slot) const { return owner_[slot]; }
  uint32_t SlotOf(uint64_t key) const {
    return SlotForKey(key, num_slots());
  }
  const std::string& addr(uint32_t backend) const { return addrs_[backend]; }

  /// Atomic (from the owning thread's view) ownership flip; bumps the
  /// epoch so clients can detect staleness across kTopology fetches.
  void Flip(uint32_t slot, uint32_t new_owner) {
    owner_[slot] = new_owner;
    ++epoch_;
  }

  /// Snapshot for the kTopology reply; `states` is the backend pool's
  /// current liveness, one entry per backend.
  net::WireTopology ToWire(
      const std::vector<net::BackendState>& states) const;

 private:
  uint64_t epoch_ = 1;
  std::vector<std::string> addrs_;
  std::vector<uint32_t> owner_;  // slot -> backend index
};

}  // namespace qf::cluster

#endif  // QUANTILEFILTER_CLUSTER_TOPOLOGY_H_
