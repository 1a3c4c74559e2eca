// Vague part of QuantileFilter (Sec III-A/III-B).
//
// A thin, typed wrapper around a signed sketch that speaks Qweights: it
// converts an item's (value, criteria) into an unbiased integer weight and
// offers the estimate / reset-after-report operations Algorithm 1 needs.
//
// Two interchangeable engines (Options::vague_layout selects per filter):
//   * classic — the template parameter SketchT (Count sketch by default;
//     Count-Min for the paper's "Choice 2" ablation; float counters for the
//     rounding ablation): d independent random cache lines per item.
//   * blocked — BlockedCountSketch over SketchT's counter type: all d
//     counters in one 64-byte block, one cache miss per item
//     (sketch/blocked_count_sketch.h). Only meaningful for integer Count
//     sketch configurations; other SketchT silently keep the classic
//     layout (layout() reports what is actually in effect).
//
// Exactly one engine is constructed; every method dispatches on one
// perfectly-predicted branch, so the classic path's codegen is unchanged.
//
// Per-key operations take a Locator, not the key: Locate() hashes the key
// once (the blocked block hash; the classic rows hash per row, so their
// locator is the key itself), in the filter's batch window, and the
// insert reuses that hash.
//
// The per-key updates on the insert path (Insert, Add, Subtract) take a
// template depth kDepth, 0 by default. kDepth > 0 is the filter's
// compile-time paper geometry: it calls the blocked engine directly, with
// no layout dispatch and the lane loop unrolled, and is only valid on a
// blocked-layout part of that depth.

#ifndef QUANTILEFILTER_CORE_VAGUE_PART_H_
#define QUANTILEFILTER_CORE_VAGUE_PART_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "core/criteria.h"
#include "core/qweight.h"
#include "obs/instrument.h"
#include "sketch/blocked_count_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"

namespace qf {

/// Which SketchT configurations have a blocked-layout equivalent: integer
/// Count sketches (the signed median estimator is what the blocked layout
/// reimplements). The placeholder counter keeps the unused BlockedT member
/// instantiable for every SketchT.
template <typename SketchT>
struct BlockedLayoutSupport {
  static constexpr bool value = false;
  using counter = int16_t;
};
template <typename C>
  requires(std::is_integral_v<C> && std::is_signed_v<C> && sizeof(C) <= 4)
struct BlockedLayoutSupport<CountSketch<C>> {
  static constexpr bool value = true;
  using counter = C;
};

template <typename SketchT>
class VaguePart {
 public:
  using Support = BlockedLayoutSupport<SketchT>;
  using BlockedT = BlockedCountSketch<typename Support::counter>;
  static constexpr bool kSupportsBlocked = Support::value;

  VaguePart(size_t memory_bytes, int depth, uint64_t seed,
            VagueLayout layout = VagueLayout::kClassic)
      : layout_(kSupportsBlocked && layout == VagueLayout::kBlocked
                    ? VagueLayout::kBlocked
                    : VagueLayout::kClassic) {
    if (layout_ == VagueLayout::kBlocked) {
      blocked_.emplace(BlockedT::FromBytes(memory_bytes, depth, seed));
    } else {
      classic_.emplace(SketchT::FromBytes(memory_bytes, depth, seed));
    }
  }

  /// The layout actually in effect (a blocked request on an unsupported
  /// SketchT falls back to classic).
  VagueLayout layout() const { return layout_; }

  int depth() const { return blocked_ ? blocked_->depth() : classic_->depth(); }
  size_t width() const {
    return blocked_ ? blocked_->width() : classic_->width();
  }
  size_t MemoryBytes() const {
    return blocked_ ? blocked_->MemoryBytes() : classic_->MemoryBytes();
  }

  /// Where a vague key's counters live: BlockedCountSketch::KeyHash(vkey)
  /// under the blocked layout, `vkey` itself under the classic one.
  struct Locator {
    uint64_t value;
  };
  Locator Locate(uint64_t vkey) const {
    return Locator{blocked_ ? blocked_->KeyHash(vkey) : vkey};
  }

  /// Inserts one item at `loc` and returns the post-insert Qweight
  /// estimate (Algorithm 1 lines 3-5). Integer counters receive the
  /// unbiased probabilistically-rounded weight; floating-point counters
  /// (the paper's alternative design) accumulate the exact weight.
  template <int kDepth = 0>
  [[gnu::always_inline]] int64_t Insert(Locator loc, bool abnormal,
                                        const Criteria& criteria, Rng& rng) {
    if (kDepth > 0 || blocked_) {
      // Fused add+estimate: one cache line for the whole of Algorithm 1's
      // insert-then-read step, on the hash Locate() already computed.
      const int64_t estimate = blocked_->template AddEstimateHashed<kDepth>(
          loc.value, DrawItemQweight(abnormal, criteria, rng));
      QF_OBS(if (estimate >= std::numeric_limits<
                                 typename BlockedT::counter_type>::max()) {
        ++obs::Tally().vague_saturations;
      });
      return estimate;
    }
    SketchT& sketch = *classic_;
    const uint64_t vkey = loc.value;
    if constexpr (SketchT::kFloatingCounters) {
      sketch.AddReal(vkey, ExactItemQweight(abnormal, criteria));
    } else {
      sketch.Add(vkey, DrawItemQweight(abnormal, criteria, rng));
    }
    const int64_t estimate = sketch.Estimate(vkey);
#if QF_METRICS
    // Saturation health signal: a median estimate pinned at the counter
    // max means at least half the rows clamped — the budget is too small
    // for the load (DESIGN.md §10). Only sketches with a uniform counter
    // type expose a single saturation point (TowerSketch's rows differ in
    // width, so it opts out by not defining counter_type).
    if constexpr (!SketchT::kFloatingCounters &&
                  requires { typename SketchT::counter_type; }) {
      if (estimate >=
          std::numeric_limits<typename SketchT::counter_type>::max()) {
        ++obs::Tally().vague_saturations;
      }
    }
#endif
    return estimate;
  }

  /// Adds a raw integer Qweight (used when a candidate entry is demoted
  /// into the vague part during election).
  template <int kDepth = 0>
  [[gnu::always_inline]] void Add(Locator loc, int64_t qweight) {
    if (kDepth > 0 || blocked_) {
      blocked_->template AddHashed<kDepth>(loc.value, qweight);
    } else {
      classic_->Add(loc.value, qweight);
    }
  }

  int64_t Estimate(Locator loc) const {
    return blocked_ ? blocked_->EstimateHashed(loc.value)
                    : classic_->Estimate(loc.value);
  }

  /// Removes `amount` of estimated Qweight from the counters at `loc` —
  /// the reset-after-report / promote-to-candidate operation.
  template <int kDepth = 0>
  [[gnu::always_inline]] void Subtract(Locator loc, int64_t amount) {
    if (kDepth > 0 || blocked_) {
      blocked_->template AddHashed<kDepth>(loc.value, -amount);
    } else {
      classic_->Subtract(loc.value, amount);
    }
  }

  void Clear() {
    if (blocked_) {
      blocked_->Clear();
    } else {
      classic_->Clear();
    }
  }

  bool Mergeable(const VaguePart& other) const {
    if (layout_ != other.layout_) return false;
    return blocked_ ? blocked_->Mergeable(*other.blocked_)
                    : classic_->Mergeable(*other.classic_);
  }
  bool MergeFrom(const VaguePart& other) {
    if (layout_ != other.layout_) return false;
    return blocked_ ? blocked_->MergeFrom(*other.blocked_)
                    : classic_->MergeFrom(*other.classic_);
  }
  void AppendTo(std::vector<uint8_t>* out) const {
    if (blocked_) {
      blocked_->AppendTo(out);
    } else {
      classic_->AppendTo(out);
    }
  }
  bool ReadFrom(ByteReader* reader) {
    return blocked_ ? blocked_->ReadFrom(reader) : classic_->ReadFrom(reader);
  }

 private:
  VagueLayout layout_;
  std::optional<SketchT> classic_;
  std::optional<BlockedT> blocked_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_CORE_VAGUE_PART_H_
