// Count-Min sketch (Cormode & Muthukrishnan 2005), extended with signed
// updates so it can serve as the alternative vague-part engine in the
// paper's "Choice 2" ablation (Sec III-D / Fig 12).
//
// Classic CM assumes non-negative weights and answers with the row minimum.
// Qweights are frequently negative; we keep the row-minimum estimator (it
// stays an upper-bound-biased estimate under mixed-sign noise, which is
// exactly the behaviourally "worse" comparator the paper evaluates) and use
// saturating signed counters.

#ifndef QUANTILEFILTER_SKETCH_COUNT_MIN_SKETCH_H_
#define QUANTILEFILTER_SKETCH_COUNT_MIN_SKETCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/memory.h"
#include "common/serialize.h"

namespace qf {

template <typename CounterT = int32_t>
class CountMinSketch {
 public:
  /// Mirrors CountSketch: floating-point counters accumulate exact weights.
  static constexpr bool kFloatingCounters =
      std::is_floating_point_v<CounterT>;
  using counter_type = CounterT;

  CountMinSketch(int depth, size_t width, uint64_t seed)
      : depth_(depth),
        width_(width < 1 ? 1 : width),
        hashes_(depth, seed),
        cells_(static_cast<size_t>(depth) * width_, 0) {}

  static CountMinSketch FromBytes(size_t bytes, int depth, uint64_t seed) {
    size_t cells = ElemsForBudget(bytes, sizeof(CounterT), depth);
    return CountMinSketch(depth, cells / depth, seed);
  }

  int depth() const { return depth_; }
  size_t width() const { return width_; }
  size_t MemoryBytes() const { return cells_.size() * sizeof(CounterT); }

  /// Adds `weight` (possibly negative) for `key` to every row.
  void Add(uint64_t key, int64_t weight) {
    for (int i = 0; i < depth_; ++i) {
      CounterT& c = Cell(i, hashes_.Index(key, i, width_));
      if constexpr (kFloatingCounters) {
        c += static_cast<CounterT>(weight);
      } else {
        c = SaturatingAdd(c, weight);
      }
    }
  }

  /// Adds an exact real-valued weight (floating-point counters only).
  void AddReal(uint64_t key, double weight) {
    static_assert(kFloatingCounters,
                  "AddReal requires floating-point counters");
    for (int i = 0; i < depth_; ++i) {
      Cell(i, hashes_.Index(key, i, width_)) += static_cast<CounterT>(weight);
    }
  }

  /// Minimum-of-rows estimate of the total weight of `key`.
  int64_t Estimate(uint64_t key) const {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < depth_; ++i) {
      int64_t v;
      if constexpr (kFloatingCounters) {
        v = static_cast<int64_t>(std::llround(
            static_cast<double>(Cell(i, hashes_.Index(key, i, width_)))));
      } else {
        v = static_cast<int64_t>(Cell(i, hashes_.Index(key, i, width_)));
      }
      best = std::min(best, v);
    }
    return best;
  }

  /// Removes an estimated weight from every mapped counter.
  void Subtract(uint64_t key, int64_t amount) { Add(key, -amount); }

  void Clear() { std::fill(cells_.begin(), cells_.end(), CounterT{0}); }

  /// Geometry/hash compatibility; see CountSketch::Mergeable.
  bool Mergeable(const CountMinSketch& other) const {
    return depth_ == other.depth_ && width_ == other.width_ &&
           hashes_.master_seed() == other.hashes_.master_seed();
  }

  /// Cell-wise merge; CM estimates remain over-approximations of the union.
  bool MergeFrom(const CountMinSketch& other) {
    if (!Mergeable(other)) return false;
    for (size_t i = 0; i < cells_.size(); ++i) {
      if constexpr (kFloatingCounters) {
        cells_[i] += other.cells_[i];
      } else {
        cells_[i] =
            SaturatingAdd(cells_[i], static_cast<int64_t>(other.cells_[i]));
      }
    }
    return true;
  }

  void AppendTo(std::vector<uint8_t>* out) const {
    AppendPod(static_cast<uint32_t>(depth_), out);
    AppendPod(static_cast<uint64_t>(width_), out);
    AppendVector(cells_, out);
  }
  bool ReadFrom(ByteReader* reader) {
    uint32_t depth = 0;
    uint64_t width = 0;
    std::vector<CounterT> cells;
    if (!reader->Read(&depth) || !reader->Read(&width) ||
        !reader->ReadVector(&cells)) {
      return false;
    }
    if (static_cast<int>(depth) != depth_ || width != width_ ||
        cells.size() != cells_.size()) {
      return false;
    }
    cells_ = std::move(cells);
    return true;
  }

 private:
  CounterT& Cell(int row, uint32_t col) {
    return cells_[static_cast<size_t>(row) * width_ + col];
  }
  const CounterT& Cell(int row, uint32_t col) const {
    return cells_[static_cast<size_t>(row) * width_ + col];
  }

  int depth_;
  size_t width_;
  HashFamily hashes_;
  std::vector<CounterT> cells_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_SKETCH_COUNT_MIN_SKETCH_H_
