// Cache-resident blocked Count sketch: all d counters for a key live in ONE
// 64-byte-aligned block (one cache line), chosen by a single 64-bit hash.
//
// The classic Count sketch (sketch/count_sketch.h) touches d independent
// random cache lines per Add/Estimate — at large budgets that is d misses
// per item and the dominant cost of QuantileFilter's vague part. The
// blocked layout trades the paper's fully independent per-row hashing for
// locality, in the spirit of blocked Bloom filters and Quancurrent-style
// locality-aware sketch updates (PAPERS.md):
//
//   * one HashKey(key, seed) picks the block via FastRange64 (one miss);
//     the seed is premixed at construction, so that hash is one Mix64, and
//     callers that already hold it (the filter's batch window) pass it to
//     the *Hashed entry points instead of hashing the key again;
//   * a second Mix64 of that hash yields d distinct in-block lanes
//     (base + i*stride over the kLanes lanes of the line, stride odd so
//     lanes never collide) and d signs decoded arithmetically (2*bit - 1)
//     — no further hashing and no branch per row;
//   * the d signed updates are d scalar saturating adds on the lanes
//     (common/counters.h SaturatingAdd, branch-free);
//   * the estimate is the median of the d signed lane readings (the same
//     inline MedianOfSmall as the classic layout).
//
// The depth is a runtime value, but the per-key entry points also take it
// as a template argument (kDepth, 0 = runtime): the filter's inlined insert
// kernel (core/quantile_filter.h) compiles them for the paper's depth 3,
// where the lane loop unrolls and the median is three mask selects.
//
// Independence trade-off: rows share one block hash, so two keys that
// collide on the block collide in EVERY row (the classic layout gives
// independent collisions per row). Within a block the per-key lane
// placement and signs still differ, and the block count at a given byte
// budget equals the classic row width at depth 1, so the variance penalty
// is small at realistic budgets — tests/blocked_accuracy_test.cc pins the
// end-to-end ARE/F1 gap against the classic layout. DESIGN.md §12 has the
// full memory map and the analysis.
//
// Geometry invariant: counters per block = 64 / sizeof(CounterT)
// (32 for int16), so depth must be <= lanes. Whole-block vector adds
// (common/simd.h SatAddBlockI16/I8) are used only by MergeFrom.

#ifndef QUANTILEFILTER_SKETCH_BLOCKED_COUNT_SKETCH_H_
#define QUANTILEFILTER_SKETCH_BLOCKED_COUNT_SKETCH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "sketch/count_sketch.h"  // MedianOfSmall

namespace qf {

/// Selects the vague-part engine per filter (core/quantile_filter.h
/// Options::vague_layout). kClassic is the paper's d-independent-rows
/// CountSketch; kBlocked is the cache-resident layout in this header.
/// The numeric values are serialized in checkpoint format v4.
enum class VagueLayout : uint8_t {
  kClassic = 0,
  kBlocked = 1,
};

inline const char* VagueLayoutName(VagueLayout layout) {
  return layout == VagueLayout::kBlocked ? "blocked" : "classic";
}

template <typename CounterT = int16_t>
class BlockedCountSketch {
  static_assert(std::is_integral_v<CounterT> && std::is_signed_v<CounterT> &&
                    sizeof(CounterT) <= 4,
                "BlockedCountSketch requires signed integer counters "
                "(int8_t/int16_t/int32_t); the floating-point ablation uses "
                "the classic layout");

 public:
  static constexpr bool kFloatingCounters = false;
  using counter_type = CounterT;

  /// Counters per 64-byte block; also the maximum depth.
  static constexpr int kLanes = static_cast<int>(kBlockBytes / sizeof(CounterT));
  static constexpr uint32_t kLaneMask = static_cast<uint32_t>(kLanes - 1);
  static constexpr int kLaneBits = std::bit_width(static_cast<unsigned>(kLanes)) - 1;

  BlockedCountSketch(int depth, size_t num_blocks, uint64_t seed)
      : depth_(std::clamp(depth, 1, kLanes)),
        num_blocks_(num_blocks < 1 ? 1 : num_blocks),
        seed_(seed),
        seed_mix_(Mix64(seed)),
        raw_(num_blocks_ * static_cast<size_t>(kLanes) + kLanes, 0) {}

  /// Builds a sketch whose counter storage is at most `bytes` bytes,
  /// rounded down to whole 64-byte blocks (minimum one block). `depth`
  /// plays the classic role of d estimate rows, clamped to kLanes.
  static BlockedCountSketch FromBytes(size_t bytes, int depth,
                                      uint64_t seed) {
    return BlockedCountSketch(depth, bytes / kBlockBytes, seed);
  }

  int depth() const { return depth_; }
  /// Classic-width analogue: counters per estimate row.
  size_t width() const { return num_blocks_; }
  size_t num_blocks() const { return num_blocks_; }
  size_t MemoryBytes() const { return num_blocks_ * kBlockBytes; }
  uint64_t seed() const { return seed_; }

  /// The block hash of `key`: HashKey(key, seed()), with Mix64(seed)
  /// cached. Every placement decision (block, lanes, signs) derives from
  /// it, so Add, AddEstimate and Estimate each have a *Hashed twin that
  /// takes h = KeyHash(key) instead of the key.
  uint64_t KeyHash(uint64_t key) const { return Mix64(key ^ seed_mix_); }

  /// Adds `weight` (possibly negative) for `key` to its d lanes, one
  /// saturating add per lane. One cache line is touched.
  void Add(uint64_t key, int64_t weight) { AddHashed(KeyHash(key), weight); }
  template <int kDepth = 0>
  [[gnu::always_inline]] void AddHashed(uint64_t h, int64_t weight) {
    const uint64_t g = Mix64(h);
    CounterT* block = BlockFor(h);
    ForEachLane<kDepth>(depth_, [&](int i) {
      CounterT& c = block[Lane(g, i)];
      c = SaturatingAdd(c, Sign(g, i) * weight);
    });
  }

  /// Fused Add + Estimate for the filter's vague insert path (Algorithm 1
  /// lines 3-5 do exactly this pair): one hash, one block decode, one
  /// line, and the median reads the freshly-updated lanes straight from
  /// registers. Bit-identical to Add(key, w) followed by Estimate(key),
  /// because the lanes are pairwise distinct.
  int64_t AddEstimate(uint64_t key, int64_t weight) {
    return AddEstimateHashed(KeyHash(key), weight);
  }
  template <int kDepth = 0>
  [[gnu::always_inline]] int64_t AddEstimateHashed(uint64_t h,
                                                   int64_t weight) {
    const uint64_t g = Mix64(h);
    CounterT* block = BlockFor(h);
    int64_t vals[kDepth > 0 ? kDepth : kLanes];
    ForEachLane<kDepth>(depth_, [&](int i) {
      CounterT& c = block[Lane(g, i)];
      const int64_t sign = Sign(g, i);
      c = SaturatingAdd(c, sign * weight);
      // Widened before the multiply: -1 * INT32_MIN does not fit int32.
      vals[i] = sign * static_cast<int64_t>(c);
    });
    return MedianOfSmall(vals, Depth<kDepth>());
  }

  /// Median-of-rows estimate of the total weight of `key`.
  int64_t Estimate(uint64_t key) const { return EstimateHashed(KeyHash(key)); }
  template <int kDepth = 0>
  int64_t EstimateHashed(uint64_t h) const {
    const uint64_t g = Mix64(h);
    const CounterT* block = BlockFor(h);
    int64_t vals[kDepth > 0 ? kDepth : kLanes];
    ForEachLane<kDepth>(depth_, [&](int i) {
      vals[i] = static_cast<int64_t>(Sign(g, i)) * block[Lane(g, i)];
    });
    return MedianOfSmall(vals, Depth<kDepth>());
  }

  /// Removes an estimated weight (the report-and-reset path).
  void Subtract(uint64_t key, int64_t amount) { Add(key, -amount); }

  void Clear() { std::fill(raw_.begin(), raw_.end(), CounterT{0}); }

  /// True iff `other` has identical geometry and hash function.
  bool Mergeable(const BlockedCountSketch& other) const {
    return depth_ == other.depth_ && num_blocks_ == other.num_blocks_ &&
           seed_ == other.seed_;
  }

  /// Lane-wise saturating merge (linearity). Returns false on mismatch.
  bool MergeFrom(const BlockedCountSketch& other) {
    if (!Mergeable(other)) return false;
    CounterT* dst = data();
    const CounterT* src = other.data();
    if constexpr (sizeof(CounterT) <= 2) {
      // Every source counter fits CounterT, so the vector saturating add
      // equals the scalar int64-clamped SaturatingAdd lane for lane.
      for (size_t b = 0; b < num_blocks_; ++b) {
        SatAddBlock(dst + b * kLanes, src + b * kLanes);
      }
    } else {
      const size_t n = num_blocks_ * static_cast<size_t>(kLanes);
      for (size_t i = 0; i < n; ++i) {
        dst[i] = SaturatingAdd(dst[i], static_cast<int64_t>(src[i]));
      }
    }
    return true;
  }

  /// Checkpointing. The byte shape mirrors the classic sketch (geometry
  /// header + length-prefixed counter array) but is distinguished at the
  /// filter level by the v4 layout tag, so a classic blob can never be
  /// misread as blocked or vice versa.
  void AppendTo(std::vector<uint8_t>* out) const {
    AppendPod(static_cast<uint32_t>(depth_), out);
    AppendPod(static_cast<uint64_t>(num_blocks_), out);
    const size_t n = num_blocks_ * static_cast<size_t>(kLanes);
    AppendPod(static_cast<uint64_t>(n), out);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(data());
    out->insert(out->end(), p, p + n * sizeof(CounterT));
  }
  bool ReadFrom(ByteReader* reader) {
    uint32_t depth = 0;
    uint64_t blocks = 0;
    std::vector<CounterT> counters;
    if (!reader->Read(&depth) || !reader->Read(&blocks) ||
        !reader->ReadVector(&counters)) {
      return false;
    }
    const size_t n = num_blocks_ * static_cast<size_t>(kLanes);
    if (static_cast<int>(depth) != depth_ || blocks != num_blocks_ ||
        counters.size() != n) {
      return false;
    }
    std::copy(counters.begin(), counters.end(), data());
    return true;
  }

  // -- Test hooks (blocked_sketch_test.cc): expose the lane/sign decode so
  // distinctness and sign balance can be asserted without duplicating the
  // derivation.
  struct Placement {
    size_t block = 0;
    uint32_t lanes[kLanes] = {};
    int signs[kLanes] = {};
  };
  Placement PlacementOf(uint64_t key) const {
    const uint64_t h = HashKey(key, seed_);
    const uint64_t g = Mix64(h);
    Placement p;
    p.block = FastRange64(h, num_blocks_);
    for (int i = 0; i < depth_; ++i) {
      p.lanes[i] = Lane(g, i);
      p.signs[i] = Sign(g, i);
    }
    return p;
  }

 private:
  /// The lane count of the per-key entry points: kDepth when the caller
  /// compiled one in (it must equal depth()), the runtime depth otherwise.
  template <int kDepth>
  int Depth() const {
    static_assert(kDepth >= 0 && kDepth <= kLanes);
    return kDepth > 0 ? kDepth : depth_;
  }

  /// 64-byte-aligned base of the counter array. The vector over-allocates
  /// by one block and the base is realigned on demand, so copies and moves
  /// (whose heap blocks land at different addresses) stay correct.
  CounterT* data() {
    return reinterpret_cast<CounterT*>(
        (reinterpret_cast<uintptr_t>(raw_.data()) + (kBlockBytes - 1)) &
        ~static_cast<uintptr_t>(kBlockBytes - 1));
  }
  const CounterT* data() const {
    return const_cast<BlockedCountSketch*>(this)->data();
  }

  CounterT* BlockFor(uint64_t h) {
    return data() + FastRange64(h, num_blocks_) * static_cast<size_t>(kLanes);
  }
  const CounterT* BlockFor(uint64_t h) const {
    return const_cast<BlockedCountSketch*>(this)->BlockFor(h);
  }

  /// Row i's lane: base + i*stride mod kLanes with stride odd, so the d
  /// lanes are pairwise distinct for any depth <= kLanes.
  static uint32_t Lane(uint64_t g, int i) {
    const uint32_t base = static_cast<uint32_t>(g) & kLaneMask;
    const uint32_t stride =
        (static_cast<uint32_t>(g >> kLaneBits) & kLaneMask) | 1u;
    return (base + static_cast<uint32_t>(i) * stride) & kLaneMask;
  }
  /// Row i's sign, from hash bits above the lane fields: 2*bit - 1, so
  /// the random sign costs a shift and a multiply-add, not a branch.
  static int Sign(uint64_t g, int i) {
    return 2 * static_cast<int>((g >> ((2 * kLaneBits + i) & 63)) & 1) - 1;
  }

  static void SatAddBlock(CounterT* dst, const CounterT* delta) {
    if constexpr (sizeof(CounterT) == 2) {
      SatAddBlockI16(reinterpret_cast<int16_t*>(dst),
                     reinterpret_cast<const int16_t*>(delta));
    } else if constexpr (sizeof(CounterT) == 1) {
      SatAddBlockI8(reinterpret_cast<int8_t*>(dst),
                    reinterpret_cast<const int8_t*>(delta));
    } else {
      // No saturating 32-bit vector add below AVX-512; the scalar clamp is
      // still one cache line of work.
      for (int i = 0; i < kLanes; ++i) {
        dst[i] = SaturatingAdd(dst[i], static_cast<int64_t>(delta[i]));
      }
    }
  }

  int depth_;
  size_t num_blocks_;
  uint64_t seed_;
  uint64_t seed_mix_;  // Mix64(seed_), so KeyHash is one Mix64
  std::vector<CounterT> raw_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_SKETCH_BLOCKED_COUNT_SKETCH_H_
