// Key-sharded QuantileFilter for multi-core pipelines (extension).
//
// The paper's single-structure design is single-writer. Real deployments
// (cf. OctoSketch [22]) shard the key space across cores: each shard owns an
// independent QuantileFilter over a disjoint key partition, so shards never
// contend and results compose exactly (a key's Qweight lives in exactly one
// shard). This wrapper provides the partitioning, aggregate statistics and
// a per-shard accessor for pinning shards to worker threads.
//
// Thread-safety contract: distinct shards may be driven concurrently from
// distinct threads; a single shard is single-writer, like the underlying
// filter. ShardFor() is pure and lock-free.

#ifndef QUANTILEFILTER_CORE_SHARDED_FILTER_H_
#define QUANTILEFILTER_CORE_SHARDED_FILTER_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/serialize.h"
#include "core/quantile_filter.h"

namespace qf {

template <typename SketchT = CountSketch<int16_t>>
class ShardedQuantileFilter {
 public:
  using Filter = QuantileFilter<SketchT>;

  /// Splits `options.memory_bytes` evenly across `num_shards` filters.
  ShardedQuantileFilter(const typename Filter::Options& options,
                        const Criteria& criteria, int num_shards)
      : num_shards_(num_shards < 1 ? 1 : num_shards) {
    typename Filter::Options shard_options = options;
    shard_options.memory_bytes =
        options.memory_bytes / static_cast<size_t>(num_shards_);
    shards_.reserve(num_shards_);
    for (int s = 0; s < num_shards_; ++s) {
      shard_options.seed = Mix64(options.seed + 0x9E37 * (s + 1));
      shards_.push_back(std::make_unique<Filter>(shard_options, criteria));
    }
  }

  /// NUMA-aware variant: constructs shard `s` on a fresh thread after
  /// running `init(s)` on it (the caller typically pins the thread there —
  /// parallel/placement.h). Under Linux first-touch, the filter's candidate
  /// arrays and sketch counters are then backed by pages on the node where
  /// that shard's pipeline worker will run. Seeds and splits match the
  /// plain constructor exactly, so the resulting filter is bit-identical —
  /// only page placement differs.
  template <typename ShardInit>
  ShardedQuantileFilter(const typename Filter::Options& options,
                        const Criteria& criteria, int num_shards,
                        ShardInit&& init)
      : num_shards_(num_shards < 1 ? 1 : num_shards) {
    typename Filter::Options shard_options = options;
    shard_options.memory_bytes =
        options.memory_bytes / static_cast<size_t>(num_shards_);
    shards_.resize(static_cast<size_t>(num_shards_));
    std::vector<std::thread> builders;
    builders.reserve(static_cast<size_t>(num_shards_));
    for (int s = 0; s < num_shards_; ++s) {
      typename Filter::Options opts = shard_options;
      opts.seed = Mix64(options.seed + 0x9E37 * (s + 1));
      builders.emplace_back([this, opts, &criteria, &init, s] {
        init(s);
        shards_[static_cast<size_t>(s)] =
            std::make_unique<Filter>(opts, criteria);
      });
    }
    for (std::thread& t : builders) t.join();
  }

  int num_shards() const { return num_shards_; }

  /// The shard index that owns `key`. Fast-range reduction of a dedicated
  /// hash: pure, lock-free and division-free, so dispatchers can call it
  /// per item. The mapping is stamped by kKeyMappingScheme in serialized
  /// state — changing it invalidates persisted per-shard partitions.
  int ShardFor(uint64_t key) const {
    return static_cast<int>(FastRange64(
        HashKey(key, 0x5A4DULL), static_cast<uint64_t>(num_shards_)));
  }

  /// Direct access to one shard (to drive it from its worker thread).
  Filter& shard(int s) { return *shards_[s]; }
  const Filter& shard(int s) const { return *shards_[s]; }

  /// Convenience single-threaded interface: routes to the owning shard.
  bool Insert(uint64_t key, double value) {
    return shards_[ShardFor(key)]->Insert(key, value);
  }
  bool Insert(uint64_t key, double value, const Criteria& criteria) {
    return shards_[ShardFor(key)]->Insert(key, value, criteria);
  }
  int64_t QueryQweight(uint64_t key) const {
    return shards_[ShardFor(key)]->QueryQweight(key);
  }
  bool IsCandidate(uint64_t key) const {
    return shards_[ShardFor(key)]->IsCandidate(key);
  }
  void Delete(uint64_t key) { shards_[ShardFor(key)]->Delete(key); }

  void Reset() {
    for (auto& shard : shards_) shard->Reset();
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& shard : shards_) bytes += shard->MemoryBytes();
    return bytes;
  }

  /// Checkpoints all shards. The header records the key->shard mapping
  /// scheme (kKeyMappingScheme) and the shard count, because the per-shard
  /// payloads are only meaningful under the exact ShardFor partition that
  /// produced them: restored into a different mapping, every key would be
  /// looked up in the wrong shard.
  std::vector<uint8_t> SerializeState() const {
    std::vector<uint8_t> out;
    AppendPod(kShardedMagic, &out);
    AppendPod(kKeyMappingScheme, &out);
    AppendPod(static_cast<uint32_t>(num_shards_), &out);
    for (const auto& shard : shards_) {
      AppendVector(shard->SerializeState(), &out);
    }
    return WrapCrc(std::move(out));
  }

  /// Restores state saved by SerializeState into a sharded filter built
  /// with the same options and shard count. Returns false on malformed
  /// input, an envelope CRC mismatch, or a mapping-scheme/shard-count
  /// mismatch; a failure mid-restore resets all shards so no half-restored
  /// partition survives. A blob without the CRC envelope fails closed.
  bool RestoreState(const std::vector<uint8_t>& bytes) {
    CrcStatus crc = CrcStatus::kOk;
    return RestoreState(bytes, &crc);
  }

  /// As above, also reporting the envelope status. The outer envelope
  /// covers the per-shard frames too, so inner statuses are not surfaced
  /// separately.
  bool RestoreState(const std::vector<uint8_t>& bytes, CrcStatus* crc) {
    const uint8_t* payload = nullptr;
    size_t payload_size = 0;
    *crc = UnwrapCrc(bytes, &payload, &payload_size);
    if (*crc == CrcStatus::kCorrupt) return false;
    ByteReader reader(payload, payload_size);
    uint32_t magic = 0, scheme = 0, shards = 0;
    if (!reader.Read(&magic) || magic != kShardedMagic) return false;
    if (!reader.Read(&scheme) || scheme != kKeyMappingScheme) return false;
    if (!reader.Read(&shards) ||
        static_cast<int>(shards) != num_shards_) {
      return false;
    }
    for (int s = 0; s < num_shards_; ++s) {
      std::vector<uint8_t> shard_bytes;
      CrcStatus shard_crc = CrcStatus::kOk;
      if (!reader.ReadVector(&shard_bytes) ||
          !shards_[s]->RestoreState(shard_bytes, &shard_crc)) {
        Reset();  // earlier shards may already hold restored state
        return false;
      }
    }
    return true;
  }

  /// Restores a single shard from a per-shard SerializeState frame (the
  /// unit a live migration ships — CONTROL kShardImport, DESIGN.md §16.3).
  /// Fails closed on a CRC-less or corrupt frame; other shards are
  /// untouched either way.
  bool RestoreShardState(int s, const std::vector<uint8_t>& bytes) {
    if (s < 0 || s >= num_shards_) return false;
    return shards_[s]->RestoreState(bytes);
  }

  /// Publishes every shard's unflushed stats deltas to the global metrics
  /// counters (see QuantileFilter::FlushMetrics). Caller must hold exclusive
  /// access to all shards — e.g. after IngestPipeline::Stop() has joined the
  /// workers. No-op when QF_METRICS=0.
  void FlushMetrics() {
    for (auto& shard : shards_) shard->FlushMetrics();
  }

  /// Sum of per-shard statistics.
  typename Filter::Stats AggregateStats() const {
    typename Filter::Stats total;
    for (const auto& shard : shards_) {
      const auto& s = shard->stats();
      total.items += s.items;
      total.reports += s.reports;
      total.candidate_hits += s.candidate_hits;
      total.admissions += s.admissions;
      total.vague_inserts += s.vague_inserts;
      total.swaps += s.swaps;
    }
    return total;
  }

 private:
  static constexpr uint32_t kShardedMagic = 0x51534832;  // "QSH2"

  int num_shards_;
  std::vector<std::unique_ptr<Filter>> shards_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_CORE_SHARDED_FILTER_H_
