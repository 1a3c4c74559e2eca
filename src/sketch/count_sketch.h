// Count sketch (Charikar, Chen, Farach-Colton 2002) with signed, weighted,
// deletable updates and saturating small-integer counters.
//
// This is the statistical engine behind QuantileFilter's vague part
// (Sec II-C / III-A of the paper): d rows of w counters; item x updates
// C_i[h_i(x)] += S_i(x) * weight in every row; the estimate is the median of
// the d signed counter readings. Weights may be negative (Qweights usually
// are), which is why the Count sketch rather than positive-only sketches is
// the natural fit.
//
// CounterT selects the counter width (int8_t / int16_t / int32_t); all
// arithmetic saturates instead of wrapping, as the paper requires.

#ifndef QUANTILEFILTER_SKETCH_COUNT_SKETCH_H_
#define QUANTILEFILTER_SKETCH_COUNT_SKETCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/memory.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace qf {

namespace detail {

/// Compare-exchange: after the call a <= b. std::min/std::max compile to
/// cmov on x86, so the networks below are branch-free: no mispredicts on
/// the random counter values the estimate path feeds them.
inline void CmpSwap(int64_t& a, int64_t& b) {
  const int64_t lo = std::min(a, b);
  b = std::max(a, b);
  a = lo;
}

}  // namespace detail

/// Returns the median of the first `n` elements of `v` (n >= 1, n <= 64).
/// For even n the lower median is returned, matching the usual sketch
/// convention of a conservative middle estimate. Forced inline so the
/// estimate paths (classic, blocked, tower) pay no call; GCC's -O2 size
/// heuristic otherwise keeps the five-case body out of line. The switch on
/// the sketch's fixed depth is perfectly predicted (and folds away where
/// the depth is a compile-time constant), and every case up to 5 is a
/// min/max network. Only n > 5 may reorder `v`.
[[gnu::always_inline]] inline int64_t MedianOfSmall(int64_t* v, int n) {
  switch (n) {
    case 1:
      return v[0];
    case 2:
      return std::min(v[0], v[1]);
    case 3: {  // hot path: the paper's default depth is 3
      // med3 = max(min(a,b), min(max(a,b), c)), by mask selects: GCC -O2
      // compiles the std::min/std::max form of this case with a jl.
      const int64_t a = v[0], b = v[1], c = v[2];
      const int64_t lo = SelectMask(b < a, b, a);
      const int64_t hi = a ^ b ^ lo;
      const int64_t mid = SelectMask(c < hi, c, hi);
      return SelectMask(mid < lo, lo, mid);
    }
    case 4: {  // 5-exchange sorting network; lower median = v[1]
      int64_t a = v[0], b = v[1], c = v[2], d = v[3];
      detail::CmpSwap(a, b);
      detail::CmpSwap(c, d);
      detail::CmpSwap(a, c);
      detail::CmpSwap(b, d);
      detail::CmpSwap(b, c);
      return b;
    }
    case 5: {  // 9-exchange sorting network (optimal); median = v[2]
      int64_t a = v[0], b = v[1], c = v[2], d = v[3], e = v[4];
      detail::CmpSwap(a, b);
      detail::CmpSwap(d, e);
      detail::CmpSwap(c, e);
      detail::CmpSwap(c, d);
      detail::CmpSwap(a, d);
      detail::CmpSwap(a, c);
      detail::CmpSwap(b, e);
      detail::CmpSwap(b, d);
      detail::CmpSwap(b, c);
      return c;
    }
    default:
      std::nth_element(v, v + (n - 1) / 2, v + n);
      return v[(n - 1) / 2];
  }
}

/// CounterT may also be a floating-point type (float/double): counters then
/// accumulate exact fractional weights with no saturation — the
/// "straightforward solution" the paper contrasts with probabilistic
/// rounding (Sec III-A, Technical Details). Used by the rounding ablation.
template <typename CounterT = int32_t>
class CountSketch {
 public:
  static constexpr bool kFloatingCounters =
      std::is_floating_point_v<CounterT>;
  using counter_type = CounterT;

  /// `depth` rows of `width` counters each. Seed fixes the hash family.
  CountSketch(int depth, size_t width, uint64_t seed)
      : depth_(depth),
        width_(width < 1 ? 1 : width),
        hashes_(depth, seed),
        cells_(static_cast<size_t>(depth) * width_, 0) {}

  /// Builds a sketch of `depth` rows whose total counter storage is at most
  /// `bytes` bytes.
  static CountSketch FromBytes(size_t bytes, int depth, uint64_t seed) {
    size_t cells = ElemsForBudget(bytes, sizeof(CounterT), depth);
    return CountSketch(depth, cells / depth, seed);
  }

  int depth() const { return depth_; }
  size_t width() const { return width_; }
  size_t MemoryBytes() const { return cells_.size() * sizeof(CounterT); }

  /// Adds `weight` (possibly negative) for `key` to every row.
  void Add(uint64_t key, int64_t weight) {
    for (int i = 0; i < depth_; ++i) {
      CounterT& c = Cell(i, hashes_.Index(key, i, width_));
      if constexpr (kFloatingCounters) {
        c += static_cast<CounterT>(hashes_.Sign(key, i) * weight);
      } else {
        c = SaturatingAdd(c, hashes_.Sign(key, i) * weight);
      }
    }
  }

  /// Adds an exact real-valued weight. Only available with floating-point
  /// counters; integer configurations must round first (see
  /// core/qweight.h's unbiased probabilistic rounding).
  void AddReal(uint64_t key, double weight) {
    static_assert(kFloatingCounters,
                  "AddReal requires floating-point counters");
    for (int i = 0; i < depth_; ++i) {
      Cell(i, hashes_.Index(key, i, width_)) +=
          static_cast<CounterT>(hashes_.Sign(key, i) * weight);
    }
  }

  /// Median-of-rows estimate of the total weight of `key`. Rounded to the
  /// nearest integer for floating-point counters.
  int64_t Estimate(uint64_t key) const {
    int64_t vals[kMaxDepth];
    int d = std::min(depth_, kMaxDepth);
    for (int i = 0; i < d; ++i) {
      if constexpr (kFloatingCounters) {
        vals[i] = static_cast<int64_t>(
            std::llround(static_cast<double>(hashes_.Sign(key, i)) *
                         Cell(i, hashes_.Index(key, i, width_))));
      } else {
        vals[i] = static_cast<int64_t>(hashes_.Sign(key, i)) *
                  Cell(i, hashes_.Index(key, i, width_));
      }
    }
    return MedianOfSmall(vals, d);
  }

  /// Removes an estimated weight from `key`'s cells: subtracts
  /// S_i(x) * `amount` from each mapped counter. Used by the report-and-reset
  /// path ("decrease C_i[h_i(x)] by S_i(x) * Qw(x)").
  void Subtract(uint64_t key, int64_t amount) { Add(key, -amount); }

  void Clear() { std::fill(cells_.begin(), cells_.end(), CounterT{0}); }

  /// True iff `other` has identical geometry and hash functions, i.e. the
  /// two sketches' counters are positionally compatible.
  bool Mergeable(const CountSketch& other) const {
    return depth_ == other.depth_ && width_ == other.width_ &&
           hashes_.master_seed() == other.hashes_.master_seed();
  }

  /// Cell-wise merge (linearity of the Count sketch): after merging, every
  /// key's estimate reflects both input streams. Returns false (no-op) if
  /// the sketches are not mergeable.
  bool MergeFrom(const CountSketch& other) {
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

  /// Checkpointing: appends counter state to `out` / restores it. Restore
  /// fails (returns false) if the serialized geometry mismatches.
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
  static constexpr int kMaxDepth = 64;

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

#endif  // QUANTILEFILTER_SKETCH_COUNT_SKETCH_H_
