// Candidate part of QuantileFilter (Sec III-B).
//
// An array of m buckets, each holding up to b entries of
// <key fingerprint, integer Qweight counter>. Keys that the election
// strategy considers likely-outstanding live here and get exact (per-entry)
// Qweight tracking, which removes hash-collision noise for precisely the
// keys that matter for reporting.
//
// Storage is struct-of-arrays (F14 / cuckoo-filter style): a bucket's
// fingerprints are contiguous, so Find probes all b entries with a single
// vector compare (common/simd.h) instead of a scalar scan, and the Qweight
// counters live in a parallel array touched only on a hit. Bucket indexing
// uses Lemire's multiply-shift fast range (no hardware division). Slots are
// addressed by index; `kNone` marks "not found".
//
// The insert path's two bucket operations, Probe and MinSlot, take the
// bucket width as a template argument (kEntries, 0 = runtime), so the
// filter's inlined kernel compiles them for the paper's b = 6.

#ifndef QUANTILEFILTER_CORE_CANDIDATE_PART_H_
#define QUANTILEFILTER_CORE_CANDIDATE_PART_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/memory.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace qf {

class CandidatePart {
 public:
  struct Options {
    size_t memory_bytes = 64 * 1024;
    int bucket_entries = 6;      // paper default b = 6
    int fingerprint_bits = 16;   // paper default: 16-bit fingerprints
    uint64_t seed = 0x5EEDCA4D;
  };

  /// Interleaved view of one slot, used for serialization, merging and
  /// inspection. fingerprint == 0 marks an empty slot (Fingerprint() never
  /// returns 0 for a real key).
  struct Entry {
    uint32_t fingerprint = 0;
    int32_t qweight = 0;

    bool empty() const { return fingerprint == 0; }
  };

  /// "No such slot" result of Find / FindEmpty.
  static constexpr int64_t kNone = -1;

  explicit CandidatePart(const Options& options)
      : bucket_entries_(options.bucket_entries < 1 ? 1
                                                   : options.bucket_entries),
        fingerprint_bits_(options.fingerprint_bits < 1
                              ? 1
                              : (options.fingerprint_bits > 32
                                     ? 32
                                     : options.fingerprint_bits)),
        seed_(options.seed),
        seed_mix_(Mix64(options.seed)),
        num_buckets_(ElemsForBudget(options.memory_bytes,
                                    sizeof(Entry) * bucket_entries_, 1)),
        fp_mask_((fingerprint_bits_ >= 32) ? 0xFFFFFFFFu
                                           : ((1u << fingerprint_bits_) - 1u)),
        num_slots_(num_buckets_ * bucket_entries_),
        fps_(num_slots_ + kFindU32Pad, 0u),
        qweights_(num_slots_, 0) {}

  size_t num_buckets() const { return num_buckets_; }
  int bucket_entries() const { return bucket_entries_; }
  int fingerprint_bits() const { return fingerprint_bits_; }
  size_t num_slots() const { return num_slots_; }
  size_t MemoryBytes() const { return num_slots_ * sizeof(Entry); }

  /// Single-hash probe seam (kKeyMappingScheme = 3): ONE HashKey call
  /// yields both coordinates of a key's probe. The bucket comes from the
  /// high hash bits (FastRange64's multiply keeps only the top of the
  /// product) and the fingerprint from the low 32, so the two stay
  /// effectively independent while every probe path — scalar insert, the
  /// batched prehash window, queries, deletes — pays one Mix64 instead of
  /// two. BucketFromHash reproduces scheme-2 bucket placement bit-exactly;
  /// fingerprints changed, which is why the mapping scheme was bumped.
  /// The seed is premixed at construction: Mix64(key ^ Mix64(seed)) is
  /// HashKey(key, seed) with its constant half computed once.
  uint64_t KeyHash(uint64_t key) const { return Mix64(key ^ seed_mix_); }

  uint32_t BucketFromHash(uint64_t h) const {
    return static_cast<uint32_t>(FastRange64(h, num_buckets_));
  }

  /// Low 32 bits of the key hash, masked to fingerprint_bits; never 0
  /// (0 marks an empty slot), matching Fingerprint()'s convention.
  uint32_t FingerprintFromHash(uint64_t h) const {
    const uint32_t fp = static_cast<uint32_t>(h) & fp_mask_;
    return fp == 0 ? 1u : fp;
  }

  uint32_t BucketOf(uint64_t key) const { return BucketFromHash(KeyHash(key)); }

  uint32_t FingerprintOf(uint64_t key) const {
    return FingerprintFromHash(KeyHash(key));
  }

  /// The identifier under which a (bucket, fingerprint) pair is inserted
  /// into the vague part: the paper replaces h_i(x) with h_i(fp + h_b(x))
  /// because the full key is unknown once only the fingerprint is stored.
  uint64_t VagueKey(uint32_t bucket, uint32_t fp) const {
    return (static_cast<uint64_t>(bucket) << fingerprint_bits_) |
           static_cast<uint64_t>(fp);
  }

  /// Index of the first slot of `bucket`.
  template <int kEntries = 0>
  size_t SlotBase(uint32_t bucket) const {
    return static_cast<size_t>(bucket) * Entries<kEntries>();
  }

  /// Slot index holding `fp` in `bucket`, or kNone. One vector compare.
  int64_t Find(uint32_t bucket, uint32_t fp) const {
    const size_t base = SlotBase(bucket);
    const int i = FindU32(fps_.data() + base, bucket_entries_, fp);
    return i < 0 ? kNone : static_cast<int64_t>(base) + i;
  }

  /// First empty slot in `bucket`, or kNone if the bucket is full.
  int64_t FindEmpty(uint32_t bucket) const { return Find(bucket, 0u); }

  /// Find and FindEmpty as one call, bucket-relative (add SlotBase), -1 if
  /// absent; `empty` is meaningful only when `match` is -1. A compiled
  /// width (the paper's b = 6) takes one load and compare pair (ProbeU32).
  /// The runtime width keeps Find's early exit, then FindEmpty: without a
  /// constant width the fused loop is slower on hit-dominated streams
  /// (micro_ops' single-insert and query benches).
  template <int kEntries = 0>
  [[gnu::always_inline]] U32Probe Probe(uint32_t bucket, uint32_t fp) const {
    const uint32_t* lanes = fps_.data() + SlotBase<kEntries>(bucket);
    if constexpr (kEntries > 0) {
      static_assert(kEntries <= 32, "ProbeU32 covers up to 32 lanes");
      return ProbeU32(lanes, kEntries, fp);
    } else {
      const int match = FindU32(lanes, bucket_entries_, fp);
      return U32Probe{match,
                      match >= 0 ? -1 : FindU32(lanes, bucket_entries_, 0u)};
    }
  }

  /// Slot with the smallest Qweight in a full `bucket` (the eviction
  /// victim for candidate election). First minimum wins on ties; chosen by
  /// mask selects, since the Qweights are data.
  template <int kEntries = 0>
  [[gnu::always_inline]] int64_t MinSlot(uint32_t bucket) const {
    const size_t base = SlotBase<kEntries>(bucket);
    return static_cast<int64_t>(base) +
           FirstMinI32<kEntries>(qweights_.data() + base, Entries<kEntries>());
  }

  uint32_t fingerprint(int64_t slot) const {
    return fps_[static_cast<size_t>(slot)];
  }
  int32_t qweight(int64_t slot) const {
    return qweights_[static_cast<size_t>(slot)];
  }
  void set_qweight(int64_t slot, int32_t v) {
    qweights_[static_cast<size_t>(slot)] = v;
  }
  void SetSlot(int64_t slot, uint32_t fp, int32_t qw) {
    fps_[static_cast<size_t>(slot)] = fp;
    qweights_[static_cast<size_t>(slot)] = qw;
  }
  Entry GetEntry(int64_t slot) const {
    return Entry{fps_[static_cast<size_t>(slot)],
                 qweights_[static_cast<size_t>(slot)]};
  }

  /// Pulls `bucket`'s fingerprint row and counter row toward the cache
  /// (used by the batched insert window ahead of the actual probe).
  void PrefetchBucket(uint32_t bucket) const {
    const size_t base = SlotBase(bucket);
    Prefetch(fps_.data() + base);
    Prefetch(qweights_.data() + base);
  }

  /// Interleaved snapshot of all slots (for inspection in tests and stats).
  std::vector<Entry> slots() const {
    std::vector<Entry> out(num_slots_);
    for (size_t i = 0; i < num_slots_; ++i) {
      out[i] = Entry{fps_[i], qweights_[i]};
    }
    return out;
  }

  /// Fraction of slots currently occupied.
  double Occupancy() const {
    size_t used = 0;
    for (size_t i = 0; i < num_slots_; ++i) used += fps_[i] == 0 ? 0 : 1;
    return num_slots_ == 0 ? 0.0
                           : static_cast<double>(used) /
                                 static_cast<double>(num_slots_);
  }

  void Clear() {
    fps_.assign(fps_.size(), 0u);
    qweights_.assign(qweights_.size(), 0);
  }

  /// True iff `other` was built with identical structure and hashing, so
  /// entries are positionally and fingerprint-compatible.
  bool Compatible(const CandidatePart& other) const {
    return num_buckets_ == other.num_buckets_ &&
           bucket_entries_ == other.bucket_entries_ &&
           fingerprint_bits_ == other.fingerprint_bits_ &&
           seed_ == other.seed_;
  }

  /// Checkpointing of the slot array. The payload is the interleaved Entry
  /// layout (layout-independent of the in-memory SoA form), prefixed by
  /// the key->bucket mapping scheme under which the slots were populated:
  /// a slot's bucket index is derived from the key hash, so state written
  /// under a different BucketOf reduction would leave every resident entry
  /// unreachable (and its VagueKey mass misaddressed) after load. ReadFrom
  /// rejects such streams instead of restoring them silently; migration is
  /// impossible because only fingerprints, not keys, are stored.
  void AppendTo(std::vector<uint8_t>* out) const {
    AppendPod(kKeyMappingScheme, out);
    AppendPod(static_cast<uint64_t>(num_buckets_), out);
    AppendPod(static_cast<uint32_t>(bucket_entries_), out);
    AppendVector(slots(), out);
  }
  bool ReadFrom(ByteReader* reader) {
    uint32_t scheme = 0;
    uint64_t buckets = 0;
    uint32_t entries = 0;
    std::vector<Entry> slots;
    if (!reader->Read(&scheme) || !reader->Read(&buckets) ||
        !reader->Read(&entries) || !reader->ReadVector(&slots)) {
      return false;
    }
    if (scheme != kKeyMappingScheme || buckets != num_buckets_ ||
        static_cast<int>(entries) != bucket_entries_ ||
        slots.size() != num_slots_) {
      return false;
    }
    for (size_t i = 0; i < num_slots_; ++i) {
      fps_[i] = slots[i].fingerprint;
      qweights_[i] = slots[i].qweight;
    }
    return true;
  }

 private:
  /// The bucket width: kEntries when the caller compiled one in (it must
  /// equal bucket_entries()), the runtime width otherwise.
  template <int kEntries>
  int Entries() const {
    return kEntries > 0 ? kEntries : bucket_entries_;
  }

  int bucket_entries_;
  int fingerprint_bits_;
  uint64_t seed_;
  uint64_t seed_mix_;  // Mix64(seed_), cached for KeyHash
  size_t num_buckets_;
  uint32_t fp_mask_;
  size_t num_slots_;
  // Parallel slot arrays; fps_ carries kFindU32Pad zeroed lanes of overread
  // padding for the vectorized probe.
  std::vector<uint32_t> fps_;
  std::vector<int32_t> qweights_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_CORE_CANDIDATE_PART_H_
