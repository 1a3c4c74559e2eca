// Signed Tower sketch: a Count-sketch variant whose rows use different
// counter widths (8/16/32-bit), so low rows pack many small counters and
// high rows catch large Qweights without saturating.
//
// The paper leaves "which of the existing dozens of sketches suits the
// vague part best" as future work (Sec III-D, Choice 2); TowerSketch
// (Yang et al., cited as [42]) is the natural candidate because the vague
// part's counters are mostly near zero — exactly the regime tower layouts
// exploit. This adaptation keeps Count-sketch signed updates and median
// estimation but assigns row r the counter type widths_[r % 3].
//
// Satisfies the same vague-engine concept as CountSketch/CountMinSketch:
// FromBytes / Add / AddReal(static-asserted off) / Estimate / Subtract /
// Clear / depth / width / MemoryBytes / kFloatingCounters.

#ifndef QUANTILEFILTER_SKETCH_TOWER_SKETCH_H_
#define QUANTILEFILTER_SKETCH_TOWER_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/memory.h"
#include "common/serialize.h"
#include "sketch/count_sketch.h"

namespace qf {

class TowerSketch {
 public:
  static constexpr bool kFloatingCounters = false;

  /// `depth` rows; row r gets counter width 8 << (r % levels) bits (8, 16,
  /// 32 for the default 3 levels) and a width that spends `bytes_per_row`
  /// bytes, so narrow-counter rows are proportionally wider.
  TowerSketch(int depth, size_t bytes_per_row, uint64_t seed)
      : depth_(depth < 1 ? 1 : depth), hashes_(depth_, seed) {
    rows_.reserve(depth_);
    for (int r = 0; r < depth_; ++r) {
      Row row;
      row.bits = 8 << (r % 3);
      size_t elem = static_cast<size_t>(row.bits) / 8;
      row.width = ElemsForBudget(bytes_per_row, elem, 1);
      row.cells8.assign(row.bits == 8 ? row.width : 0, 0);
      row.cells16.assign(row.bits == 16 ? row.width : 0, 0);
      row.cells32.assign(row.bits == 32 ? row.width : 0, 0);
      rows_.push_back(std::move(row));
    }
  }

  static TowerSketch FromBytes(size_t bytes, int depth, uint64_t seed) {
    int d = depth < 1 ? 1 : depth;
    return TowerSketch(d, bytes / static_cast<size_t>(d), seed);
  }

  int depth() const { return depth_; }
  size_t width() const { return rows_.empty() ? 0 : rows_[0].width; }
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const Row& row : rows_) {
      bytes += row.cells8.size() + 2 * row.cells16.size() +
               4 * row.cells32.size();
    }
    return bytes;
  }

  void Add(uint64_t key, int64_t weight) {
    for (int r = 0; r < depth_; ++r) {
      Row& row = rows_[r];
      uint32_t col = hashes_.Index(key, r, static_cast<uint32_t>(row.width));
      int64_t delta = hashes_.Sign(key, r) * weight;
      switch (row.bits) {
        case 8:
          row.cells8[col] = SaturatingAdd(row.cells8[col], delta);
          break;
        case 16:
          row.cells16[col] = SaturatingAdd(row.cells16[col], delta);
          break;
        default:
          row.cells32[col] = SaturatingAdd(row.cells32[col], delta);
          break;
      }
    }
  }

  int64_t Estimate(uint64_t key) const {
    int64_t vals[64];
    int d = std::min(depth_, 64);
    for (int r = 0; r < d; ++r) {
      const Row& row = rows_[r];
      uint32_t col = hashes_.Index(key, r, static_cast<uint32_t>(row.width));
      int64_t cell;
      switch (row.bits) {
        case 8:
          cell = row.cells8[col];
          break;
        case 16:
          cell = row.cells16[col];
          break;
        default:
          cell = row.cells32[col];
          break;
      }
      vals[r] = static_cast<int64_t>(hashes_.Sign(key, r)) * cell;
    }
    return MedianOfSmall(vals, d);
  }

  void Subtract(uint64_t key, int64_t amount) { Add(key, -amount); }

  void Clear() {
    for (Row& row : rows_) {
      std::fill(row.cells8.begin(), row.cells8.end(), int8_t{0});
      std::fill(row.cells16.begin(), row.cells16.end(), int16_t{0});
      std::fill(row.cells32.begin(), row.cells32.end(), int32_t{0});
    }
  }

  bool Mergeable(const TowerSketch& other) const {
    if (depth_ != other.depth_ ||
        hashes_.master_seed() != other.hashes_.master_seed()) {
      return false;
    }
    for (int r = 0; r < depth_; ++r) {
      if (rows_[r].width != other.rows_[r].width ||
          rows_[r].bits != other.rows_[r].bits) {
        return false;
      }
    }
    return true;
  }

  bool MergeFrom(const TowerSketch& other) {
    if (!Mergeable(other)) return false;
    for (int r = 0; r < depth_; ++r) {
      Row& mine = rows_[r];
      const Row& theirs = other.rows_[r];
      for (size_t i = 0; i < mine.cells8.size(); ++i) {
        mine.cells8[i] = SaturatingAdd(
            mine.cells8[i], static_cast<int64_t>(theirs.cells8[i]));
      }
      for (size_t i = 0; i < mine.cells16.size(); ++i) {
        mine.cells16[i] = SaturatingAdd(
            mine.cells16[i], static_cast<int64_t>(theirs.cells16[i]));
      }
      for (size_t i = 0; i < mine.cells32.size(); ++i) {
        mine.cells32[i] = SaturatingAdd(
            mine.cells32[i], static_cast<int64_t>(theirs.cells32[i]));
      }
    }
    return true;
  }

  void AppendTo(std::vector<uint8_t>* out) const {
    AppendPod(static_cast<uint32_t>(depth_), out);
    for (const Row& row : rows_) {
      AppendPod(static_cast<uint32_t>(row.bits), out);
      AppendVector(row.cells8, out);
      AppendVector(row.cells16, out);
      AppendVector(row.cells32, out);
    }
  }
  bool ReadFrom(ByteReader* reader) {
    uint32_t depth = 0;
    if (!reader->Read(&depth) || static_cast<int>(depth) != depth_) {
      return false;
    }
    for (Row& row : rows_) {
      uint32_t bits = 0;
      std::vector<int8_t> c8;
      std::vector<int16_t> c16;
      std::vector<int32_t> c32;
      if (!reader->Read(&bits) || !reader->ReadVector(&c8) ||
          !reader->ReadVector(&c16) || !reader->ReadVector(&c32)) {
        return false;
      }
      if (static_cast<int>(bits) != row.bits ||
          c8.size() != row.cells8.size() ||
          c16.size() != row.cells16.size() ||
          c32.size() != row.cells32.size()) {
        return false;
      }
      row.cells8 = std::move(c8);
      row.cells16 = std::move(c16);
      row.cells32 = std::move(c32);
    }
    return true;
  }

 private:
  struct Row {
    int bits = 8;
    size_t width = 0;
    std::vector<int8_t> cells8;
    std::vector<int16_t> cells16;
    std::vector<int32_t> cells32;
  };

  int depth_;
  HashFamily hashes_;
  std::vector<Row> rows_;
};

}  // namespace qf

#endif  // QUANTILEFILTER_SKETCH_TOWER_SKETCH_H_
