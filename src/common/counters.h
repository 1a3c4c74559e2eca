// Saturating integer counter arithmetic.
//
// The paper stores vague-part Qweights in small integer counters (8/16/32
// bits) and requires that "operations must prevent overflow reversals,
// ignoring any addition or subtraction that would cause it" (Sec III-B,
// Technical Details). These helpers implement exactly that: an add that
// clamps at the numeric limits instead of wrapping.

#ifndef QUANTILEFILTER_COMMON_COUNTERS_H_
#define QUANTILEFILTER_COMMON_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace qf {

/// Adds `delta` to `value`, clamping at the representable range of IntT
/// instead of wrapping. `delta` is a wide integer so that callers can pass
/// estimates that themselves exceed IntT's range.
///
/// No branch depends on the delta's sign or on whether the counter
/// saturates: the sketches feed this random signs, so such a branch would
/// mispredict on about half the updates. Instead `delta` is clamped to
/// +-2^40, which changes no result (any larger delta saturates a 32-bit
/// or narrower counter either way) and keeps the int64 sum from
/// overflowing; the sum is then clamped to [kMin, kMax]. The clamps are
/// min/max, which compile to cmov. A compiler may still test the 2^40
/// guard with a branch, but only deltas of that size take it.
template <typename IntT>
constexpr IntT SaturatingAdd(IntT value, int64_t delta) {
  static_assert(std::is_signed_v<IntT> && std::is_integral_v<IntT>,
                "counters are signed integers");
  static_assert(sizeof(IntT) <= 4,
                "widths above 32 bits would overflow the int64 accumulator");
  constexpr int64_t kMin = std::numeric_limits<IntT>::min();
  constexpr int64_t kMax = std::numeric_limits<IntT>::max();
  constexpr int64_t kDeltaBound = int64_t{1} << 40;
  const int64_t d = std::min(std::max(delta, -kDeltaBound), kDeltaBound);
  const int64_t sum = static_cast<int64_t>(value) + d;
  return static_cast<IntT>(std::min(std::max(sum, kMin), kMax));
}

/// A counter cell with saturating arithmetic. Thin value wrapper so sketches
/// can store arrays of raw IntT but express intent at call sites.
template <typename IntT>
class SaturatingCounter {
 public:
  constexpr SaturatingCounter() : value_(0) {}
  explicit constexpr SaturatingCounter(IntT v) : value_(v) {}

  constexpr IntT value() const { return value_; }
  constexpr void Add(int64_t delta) { value_ = SaturatingAdd(value_, delta); }
  constexpr void Reset() { value_ = 0; }

 private:
  IntT value_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_COMMON_COUNTERS_H_
