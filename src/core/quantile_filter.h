// QuantileFilter (Sec III): online detection of quantile-outstanding keys.
//
// The filter is the composition of
//   * a candidate part  — exact Qweight counters for elected keys
//     (core/candidate_part.h), and
//   * a vague part      — a signed sketch over everyone else
//     (core/vague_part.h),
// with a candidate-election policy that promotes keys whose estimated
// Qweight beats the weakest resident candidate (Algorithm 2).
//
// Template parameter `SketchT` selects the vague-part engine:
// CountSketch<int16_t> (paper default) or CountMinSketch<int16_t>
// ("Choice 2" ablation). Counter width is selected through the sketch type.
//
// Per-item cost is O(b + d) with b = bucket entries and d = sketch rows —
// a small constant; there is no separate query phase, which is the paper's
// [R1] fast-online-computation requirement.
//
// Two insertion interfaces exist:
//   * Insert(key, value)       — one item at a time;
//   * InsertBatch(items, cb)   — a span of items, processed through a
//     ~32-item pre-hash window that hashes every item once (candidate
//     fingerprint and bucket, vague-part locator) and prefetches its
//     candidate bucket before draining the window in stream order. The
//     drained path is the same code as Insert, so reports, statistics, RNG
//     consumption and serialized state are bit-identical between the two
//     interfaces.
//
// That per-item step (InsertStep) is written once, as an inlined kernel
// templated on the bucket width and the vague depth. Both interfaces pick
// one of two instantiations per call: the paper's default geometry
// (b = 6, d = 3) on the blocked layout, qf_server's default, compiled for
// those sizes; or the runtime geometry, for everything else.
// The compiled one probes the bucket with one load and compare pair,
// unrolls the three lane updates, and picks the election victim and the
// median with mask selects.

#ifndef QUANTILEFILTER_CORE_QUANTILE_FILTER_H_
#define QUANTILEFILTER_CORE_QUANTILE_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/counters.h"
#include "common/crc32.h"
#include "common/serialize.h"
#include "common/random.h"
#include "core/candidate_part.h"
#include "core/criteria.h"
#include "core/vague_part.h"
#include "obs/instrument.h"
#include "stream/item.h"

namespace qf {

/// Candidate-election replacement strategies ("Choice 1", Sec III-D), plus
/// kDecay, an extension in the spirit of HeavyKeeper-style exponential
/// decay: instead of comparing against the newcomer, the weakest resident
/// entry is probabilistically worn down and replaced once it drops below
/// the newcomer — favoring keys with sustained (not just instantaneous)
/// Qweight.
enum class ElectionStrategy {
  kComparative,    // swap iff estimate > weakest candidate (paper default)
  kProbabilistic,  // swap with probability max(est / (est + min), 0)
  kForceful,       // always swap
  kDecay,          // decay the weakest entry; swap once it falls below
};

template <typename SketchT = CountSketch<int16_t>>
class QuantileFilter {
 public:
  struct Options {
    /// Total byte budget, split candidate : vague = candidate_fraction.
    size_t memory_bytes = 256 * 1024;
    /// Share of memory given to the candidate part (paper default 4:1).
    double candidate_fraction = 0.8;
    int vague_depth = 3;        // d, paper default
    int bucket_entries = 6;     // b, paper default
    int fingerprint_bits = 16;  // paper default
    ElectionStrategy election = ElectionStrategy::kComparative;
    /// Vague-part engine: the paper's d-independent-rows layout (kClassic,
    /// kept for the fig-12/ablation benches) or the cache-resident blocked
    /// layout (sketch/blocked_count_sketch.h; one miss per item). Only
    /// integer Count sketch SketchT support kBlocked — others fall back to
    /// classic; vague_layout() reports what is in effect.
    VagueLayout vague_layout = VagueLayout::kClassic;
    uint64_t seed = 0x9F17E60ULL;
  };

  struct Stats {
    uint64_t items = 0;           // items inserted
    uint64_t reports = 0;         // outstanding-key reports emitted
    uint64_t candidate_hits = 0;  // items resolved in the candidate part
    uint64_t admissions = 0;      // items admitted to empty candidate slots
    uint64_t vague_inserts = 0;   // items routed to the vague part
    uint64_t swaps = 0;           // candidate-election swaps
  };

  /// Items pre-hashed per InsertBatch prefetch window. Sized so the window's
  /// outstanding prefetches stay within a typical L1 miss-queue depth while
  /// amortizing the per-window loop overhead.
  static constexpr size_t kBatchWindow = 32;

  QuantileFilter(const Options& options, const Criteria& default_criteria)
      : options_(options),
        default_criteria_(default_criteria),
        candidate_(MakeCandidateOptions(options)),
        vague_(VagueBytes(options), options.vague_depth,
               Mix64(options.seed ^ 0xA60EULL), options.vague_layout),
        paper_geometry_(kHasPaperKernel &&
                        vague_.layout() == VagueLayout::kBlocked &&
                        candidate_.bucket_entries() == kPaperEntries &&
                        vague_.depth() == kPaperDepth),
        rng_(Mix64(options.seed ^ 0xD1CEULL)) {
    QF_OBS(obs::FilterMetrics::Get().candidate_slots.Add(
        candidate_.num_slots()));
  }

  explicit QuantileFilter(const Options& options)
      : QuantileFilter(options, Criteria()) {}

  const Criteria& default_criteria() const { return default_criteria_; }
  /// The vague layout actually in effect (a kBlocked request on an
  /// unsupported SketchT falls back to kClassic).
  VagueLayout vague_layout() const { return vague_.layout(); }
  const Stats& stats() const { return stats_; }

  /// RNG snapshot for durable checkpoints (src/durable/checkpoint.h).
  /// SerializeState deliberately excludes rng_ so "QFS2"/"QFS4" blobs stay
  /// byte-compatible across builds, but crash recovery restores a blob and
  /// then replays the WAL tail — the replayed probabilistic-rounding draws
  /// only match the pre-crash filter if the generator state rides along.
  void GetRngState(uint64_t out[4]) const { rng_.GetState(out); }
  void SetRngState(const uint64_t in[4]) { rng_.SetState(in); }
  const CandidatePart& candidate_part() const { return candidate_; }
  size_t MemoryBytes() const {
    return candidate_.MemoryBytes() + vague_.MemoryBytes();
  }

  /// Processes one item under the default criteria. Returns true iff this
  /// item caused `key` to be reported as outstanding (the caller holds the
  /// full key, so real-time reporting needs no reverse fingerprint lookup).
  bool Insert(uint64_t key, double value) {
    return Insert(key, value, default_criteria_);
  }

  /// Processes one item under caller-supplied criteria (Sec III-C: distinct
  /// criteria per key, supplied alongside each item).
  bool Insert(uint64_t key, double value, const Criteria& criteria) {
    if constexpr (kHasPaperKernel) {
      if (paper_geometry_) {
        return InsertStep<kPaperEntries, kPaperDepth>(
            Prehash(key, value, criteria), criteria);
      }
    }
    return InsertStep<0, 0>(Prehash(key, value, criteria), criteria);
  }

  /// Batched insertion: processes `items` in stream order through a
  /// kBatchWindow-item pre-hash + prefetch window. For every reported item,
  /// `on_report(index, item)` is invoked with the item's position within
  /// `items` (reports fire in stream order). Returns the number of reports.
  ///
  /// Equivalence guarantee: the drain stage runs the identical per-item
  /// logic (and RNG draw order) as Insert, so a filter fed through
  /// InsertBatch ends bit-identical — same reports, stats and serialized
  /// state — to one fed the same items through Insert.
  template <typename ReportFn>
  size_t InsertBatch(std::span<const Item> items, const Criteria& criteria,
                     ReportFn&& on_report) {
    if constexpr (kHasPaperKernel) {
      if (paper_geometry_) {
        return InsertWindows<kPaperEntries, kPaperDepth>(items, criteria,
                                                         on_report);
      }
    }
    return InsertWindows<0, 0>(items, criteria, on_report);
  }

  /// InsertBatch overloads that drop the per-report callback / use the
  /// default criteria. Return the number of reports.
  size_t InsertBatch(std::span<const Item> items, const Criteria& criteria) {
    return InsertBatch(items, criteria, [](size_t, const Item&) {});
  }
  size_t InsertBatch(std::span<const Item> items) {
    return InsertBatch(items, default_criteria_);
  }

  /// Current Qweight estimate for `key`: exact if resident in the candidate
  /// part, otherwise the vague-part estimate. (The "query" operation of
  /// Sec III-B.)
  int64_t QueryQweight(uint64_t key) const {
    const uint64_t h = candidate_.KeyHash(key);
    const uint32_t fp = candidate_.FingerprintFromHash(h);
    const uint32_t bucket = candidate_.BucketFromHash(h);
    if (const int64_t slot = candidate_.Find(bucket, fp);
        slot != CandidatePart::kNone) {
      return candidate_.qweight(slot);
    }
    return vague_.Estimate(LocateVague(bucket, fp));
  }

  /// True iff `key` currently occupies a candidate slot, i.e. its Qweight
  /// is tracked exactly rather than estimated by the vague part (the
  /// candidate-status half of the serving layer's QUERY frame).
  bool IsCandidate(uint64_t key) const {
    const uint64_t h = candidate_.KeyHash(key);
    return candidate_.Find(candidate_.BucketFromHash(h),
                           candidate_.FingerprintFromHash(h)) !=
           CandidatePart::kNone;
  }

  /// Forgets `key`'s accumulated Qweight (the "delete" operation; used to
  /// change a key's criteria: delete, then insert under the new criteria).
  void Delete(uint64_t key) {
    const uint64_t h = candidate_.KeyHash(key);
    const uint32_t fp = candidate_.FingerprintFromHash(h);
    const uint32_t bucket = candidate_.BucketFromHash(h);
    if (const int64_t slot = candidate_.Find(bucket, fp);
        slot != CandidatePart::kNone) {
      candidate_.set_qweight(slot, 0);
      return;
    }
    const VagueLocator vloc = LocateVague(bucket, fp);
    vague_.Subtract(vloc, vague_.Estimate(vloc));
  }

  /// A dashboard view of one candidate entry. Only the fingerprint is
  /// known (the paper's design deliberately drops full keys); callers that
  /// need key identities correlate via reports, which happen on arrival
  /// while the key is still in hand.
  struct CandidateView {
    uint32_t bucket = 0;
    uint32_t fingerprint = 0;
    int32_t qweight = 0;
  };

  /// The `k` candidate entries with the highest Qweights — the keys closest
  /// to (or freshly past) a report, for monitoring dashboards.
  std::vector<CandidateView> HottestCandidates(size_t k) const {
    std::vector<CandidateView> views;
    const int entries = candidate_.bucket_entries();
    views.reserve(candidate_.num_slots());
    for (size_t i = 0; i < candidate_.num_slots(); ++i) {
      const CandidatePart::Entry e =
          candidate_.GetEntry(static_cast<int64_t>(i));
      if (e.empty()) continue;
      views.push_back(CandidateView{
          static_cast<uint32_t>(i / static_cast<size_t>(entries)),
          e.fingerprint, e.qweight});
    }
    std::sort(views.begin(), views.end(),
              [](const CandidateView& a, const CandidateView& b) {
                return a.qweight > b.qweight;
              });
    if (views.size() > k) views.resize(k);
    return views;
  }

  /// Clears all state (the periodic "reset" operation of Sec III-B).
  void Reset() {
    candidate_.Clear();
    vague_.Clear();
  }

  /// Resets every Stats field to zero. Any deltas not yet published to the
  /// global metrics counters are flushed first, so ClearStats never makes a
  /// monotone `qf_filter_*_total` counter lose increments.
  void ClearStats() {
    FlushMetrics();
    stats_ = Stats{};
#if QF_METRICS
    metrics_flushed_ = Stats{};
#endif
  }

  /// Inserts between automatic metric flushes (power of two).
  static constexpr uint64_t kMetricsFlushItems = 4096;

  /// Publishes the per-instance Stats deltas accumulated since the last
  /// flush into the global `qf_filter_*` counters, and drains the calling
  /// thread's hot tallies (rounding/saturation events). Runs automatically
  /// every kMetricsFlushItems inserts; call explicitly before taking a
  /// snapshot that must include the newest items. No-op when QF_METRICS=0.
  void FlushMetrics() {
#if QF_METRICS
    obs::FilterMetrics& m = obs::FilterMetrics::Get();
    m.items.Add(stats_.items - metrics_flushed_.items);
    m.reports.Add(stats_.reports - metrics_flushed_.reports);
    m.candidate_hits.Add(stats_.candidate_hits -
                         metrics_flushed_.candidate_hits);
    m.admissions.Add(stats_.admissions - metrics_flushed_.admissions);
    m.vague_inserts.Add(stats_.vague_inserts -
                        metrics_flushed_.vague_inserts);
    m.swaps.Add(stats_.swaps - metrics_flushed_.swaps);
    metrics_flushed_ = stats_;
    obs::DrainTally();
#endif
  }

  /// True iff `other` was constructed with structurally identical options
  /// (same budgets, geometry and seeds), so state can be merged/restored.
  bool Compatible(const QuantileFilter& other) const {
    return candidate_.Compatible(other.candidate_) &&
           vague_.Mergeable(other.vague_);
  }

  /// Merges another monitor's state into this one (distributed collection:
  /// per-link monitors ship their filters to a collector). Vague parts add
  /// cell-wise; candidate entries with matching fingerprints sum, and
  /// bucket overflow spills the weakest Qweights into the vague part —
  /// mirroring candidate election. Returns false (no-op) on mismatch.
  bool MergeFrom(const QuantileFilter& other) {
    if (!Compatible(other)) return false;
    vague_.MergeFrom(other.vague_);
    const int entries = candidate_.bucket_entries();
    for (uint32_t b = 0; b < candidate_.num_buckets(); ++b) {
      const size_t base = other.candidate_.SlotBase(b);
      for (int i = 0; i < entries; ++i) {
        const CandidatePart::Entry theirs =
            other.candidate_.GetEntry(static_cast<int64_t>(base) + i);
        if (theirs.empty()) continue;
        MergeCandidateEntry(b, theirs);
      }
    }
    return true;
  }

  /// Checkpoint the full filter state (candidate slots + vague counters),
  /// wrapped in the CRC-32 integrity envelope (common/crc32.h) so blobs
  /// shipped over the network (net/ CONTROL frames) are tamper-evident.
  /// Stats are checkpoint-excluded by design: they are operational telemetry
  /// of this process's run (feeding the qf_filter_* metrics), so a restored
  /// filter reproduces detection behavior while its counters keep describing
  /// the work this instance performed (tests/stats_reset_test.cc).
  std::vector<uint8_t> SerializeState() const {
    std::vector<uint8_t> out;
    const bool blocked = vague_.layout() == VagueLayout::kBlocked;
    // Classic-layout filters keep writing the v2/v3 "QFS2" shape, so their
    // blobs stay byte-compatible with earlier builds. Blocked-layout
    // filters write format v4: a "QFS4" magic plus an explicit layout tag
    // between the candidate and vague payloads (after the candidate
    // payload so the key-mapping scheme tag keeps its offset).
    AppendPod(blocked ? kStateMagicV4 : kStateMagic, &out);
    candidate_.AppendTo(&out);
    if (blocked) {
      AppendPod(static_cast<uint8_t>(vague_.layout()), &out);
    }
    vague_.AppendTo(&out);
    return WrapCrc(std::move(out));
  }

  /// Restores state saved by SerializeState into a filter constructed with
  /// the same options. Returns false (state unchanged or cleared) on
  /// malformed input, a CRC mismatch, geometry mismatch, or a checkpoint
  /// written under an incompatible format/hash scheme — including v1 "QFST"
  /// checkpoints from the modulo-era BucketOf, whose entries cannot be
  /// relocated to their fast-range buckets because only fingerprints are
  /// stored. A blob without the CRC envelope fails closed.
  bool RestoreState(const std::vector<uint8_t>& bytes) {
    CrcStatus crc = CrcStatus::kOk;
    return RestoreState(bytes, &crc);
  }

  /// As above, also reporting the envelope status.
  bool RestoreState(const std::vector<uint8_t>& bytes, CrcStatus* crc) {
    const uint8_t* payload = nullptr;
    size_t payload_size = 0;
    *crc = UnwrapCrc(bytes, &payload, &payload_size);
    if (*crc == CrcStatus::kCorrupt) return false;
    ByteReader reader(payload, payload_size);
    uint32_t magic = 0;
    if (!reader.Read(&magic)) return false;
    const bool blocked = vague_.layout() == VagueLayout::kBlocked;
    // A v2/v3 blob restores only into a classic-layout filter (which is
    // the only layout that ever wrote it); a v4 blob only into a blocked
    // one. Cross-layout restores fail closed — the counter geometries are
    // incompatible.
    if (magic == kStateMagic) {
      if (blocked) return false;
    } else if (magic == kStateMagicV4) {
      if (!blocked) return false;
    } else {
      return false;
    }
    if (!candidate_.ReadFrom(&reader)) return false;
    if (magic == kStateMagicV4) {
      uint8_t layout_tag = 0;
      if (!reader.Read(&layout_tag) ||
          layout_tag != static_cast<uint8_t>(VagueLayout::kBlocked)) {
        return false;
      }
    }
    if (!vague_.ReadFrom(&reader)) {
      candidate_.Clear();  // half-restored state would be inconsistent
      return false;
    }
    return true;
  }

 private:
  // Checkpoint format ids. v2 ("QFS2") added the key-mapping scheme tag to
  // the candidate payload when BucketOf moved from `%` to FastRange64; the
  // v1 magic 0x51465354 ("QFST") identifies modulo-era checkpoints, which
  // RestoreState rejects; v3 wrapped v2 in the CRC envelope (same magic).
  // v4 ("QFS4") is written only by blocked-vague-layout filters and adds a
  // layout tag after the candidate payload — classic filters keep the v2/v3
  // shape so old blobs restore and new classic blobs stay byte-compatible.
  static constexpr uint32_t kStateMagic = 0x51465332;    // "QFS2"
  static constexpr uint32_t kStateMagicV4 = 0x51465334;  // "QFS4"

  using VagueLocator = typename VaguePart<SketchT>::Locator;

  /// The paper's default geometry, which gets its own compiled kernel when
  /// the vague part runs blocked (only SketchT with a blocked engine can).
  static constexpr int kPaperEntries = 6;
  static constexpr int kPaperDepth = 3;
  static constexpr bool kHasPaperKernel = VaguePart<SketchT>::kSupportsBlocked;

  /// Where the vague part keeps the counters of the (bucket, fp) pair.
  VagueLocator LocateVague(uint32_t bucket, uint32_t fp) const {
    return vague_.Locate(candidate_.VagueKey(bucket, fp));
  }

  /// One item's hashed coordinates: candidate fingerprint and bucket from
  /// one candidate hash, and the vague locator from one vague hash.
  struct Prehashed {
    VagueLocator vloc;
    uint32_t fp;
    uint32_t bucket;
    bool abnormal;
  };

  Prehashed Prehash(uint64_t key, double value,
                    const Criteria& criteria) const {
    const uint64_t h = candidate_.KeyHash(key);
    const uint32_t fp = candidate_.FingerprintFromHash(h);
    const uint32_t bucket = candidate_.BucketFromHash(h);
    return Prehashed{LocateVague(bucket, fp), fp, bucket,
                     criteria.ValueIsAbnormal(value)};
  }

  /// InsertBatch's body for one kernel instantiation.
  template <int kEntries, int kDepth, typename ReportFn>
  size_t InsertWindows(std::span<const Item> items, const Criteria& criteria,
                       ReportFn& on_report) {
    Prehashed window[kBatchWindow];
    size_t reports = 0;
    size_t pos = 0;
    while (pos < items.size()) {
      const size_t n = std::min(kBatchWindow, items.size() - pos);
      // Stage 1: hash the window and prefetch each item's candidate bucket,
      // which every item probes. The vague locator is kept, so the drain's
      // vague insert does not hash again. The vague block is not
      // prefetched: the insert is bound by instructions, not by misses.
      for (size_t i = 0; i < n; ++i) {
        const Item& item = items[pos + i];
        Prehashed& p = window[i];
        p = Prehash(item.key, item.value, criteria);
        candidate_.PrefetchBucket(p.bucket);
      }
      // Stage 2: drain in stream order through the per-item kernel.
      for (size_t i = 0; i < n; ++i) {
        if (InsertStep<kEntries, kDepth>(window[i], criteria)) {
          ++reports;
          on_report(pos + i, items[pos + i]);
        }
      }
      pos += n;
    }
    return reports;
  }

  /// The per-item state machine (Algorithm 1 + candidate election), shared
  /// verbatim by Insert and the InsertBatch drain stage. kEntries/kDepth
  /// are the compiled bucket width and blocked vague depth, or 0 for the
  /// runtime geometry.
  template <int kEntries, int kDepth>
  [[gnu::always_inline]] bool InsertStep(const Prehashed& item,
                                         const Criteria& criteria) {
    const uint32_t fp = item.fp;
    const uint32_t bucket = item.bucket;
    const bool abnormal = item.abnormal;
    ++stats_.items;
    // Metrics publish at batch granularity: one predictable branch per item
    // here, atomics only once per kMetricsFlushItems (QF_METRICS=0 compiles
    // this out entirely).
    QF_OBS(if ((stats_.items & (kMetricsFlushItems - 1)) == 0) {
      FlushMetrics();
    });

    // One probe answers both "resident?" and "room?".
    const U32Probe probe = candidate_.template Probe<kEntries>(bucket, fp);
    const int64_t base =
        static_cast<int64_t>(candidate_.template SlotBase<kEntries>(bucket));

    // Case 1: fingerprint already resident -> exact per-entry tracking.
    if (probe.match >= 0) {
      const int64_t slot = base + probe.match;
      ++stats_.candidate_hits;
      const int32_t qw = SaturatingAdd(
          candidate_.qweight(slot), DrawItemQweight(abnormal, criteria, rng_));
      if (qw >= criteria.report_threshold()) {
        candidate_.set_qweight(slot, 0);
        ++stats_.reports;
        return true;
      }
      candidate_.set_qweight(slot, qw);
      return false;
    }

    // Case 2: room in the bucket -> admit directly.
    if (probe.empty >= 0) {
      const int64_t slot = base + probe.empty;
      ++stats_.admissions;
      const int32_t w =
          ClampToI32(DrawItemQweight(abnormal, criteria, rng_));
      if (w >= criteria.report_threshold()) {
        candidate_.SetSlot(slot, fp, 0);
        ++stats_.reports;
        return true;
      }
      candidate_.SetSlot(slot, fp, w);
      return false;
    }

    // Case 3: bucket full -> vague part, then candidate election.
    ++stats_.vague_inserts;
    const int64_t estimate = vague_.template Insert<kDepth>(
        item.vloc, abnormal, criteria, rng_);
    if (estimate >= criteria.report_threshold()) {
      vague_.template Subtract<kDepth>(item.vloc, estimate);
      ++stats_.reports;
      return true;
    }

    const int64_t weakest = candidate_.template MinSlot<kEntries>(bucket);
    if (ShouldSwap(estimate, weakest)) {
      ++stats_.swaps;
      // Demote the weakest candidate's Qweight into the vague part...
      vague_.template Add<kDepth>(
          LocateVague(bucket, candidate_.fingerprint(weakest)),
          candidate_.qweight(weakest));
      // ...and promote the newcomer, moving its mass out of the sketch.
      vague_.template Subtract<kDepth>(item.vloc, estimate);
      candidate_.SetSlot(weakest, fp, ClampToI32(estimate));
    }
    return false;
  }

  /// Inserts one foreign candidate entry into bucket `b`, following the
  /// same priority rules as candidate election.
  void MergeCandidateEntry(uint32_t b, const CandidatePart::Entry& entry) {
    if (const int64_t slot = candidate_.Find(b, entry.fingerprint);
        slot != CandidatePart::kNone) {
      candidate_.set_qweight(
          slot, SaturatingAdd(candidate_.qweight(slot),
                              static_cast<int64_t>(entry.qweight)));
      return;
    }
    if (const int64_t slot = candidate_.FindEmpty(b);
        slot != CandidatePart::kNone) {
      candidate_.SetSlot(slot, entry.fingerprint, entry.qweight);
      return;
    }
    const int64_t weakest = candidate_.MinSlot(b);
    if (entry.qweight > candidate_.qweight(weakest)) {
      vague_.Add(LocateVague(b, candidate_.fingerprint(weakest)),
                 candidate_.qweight(weakest));
      candidate_.SetSlot(weakest, entry.fingerprint, entry.qweight);
    } else {
      vague_.Add(LocateVague(b, entry.fingerprint), entry.qweight);
    }
  }

  static CandidatePart::Options MakeCandidateOptions(const Options& o) {
    CandidatePart::Options c;
    c.memory_bytes = static_cast<size_t>(
        static_cast<double>(o.memory_bytes) * o.candidate_fraction);
    c.bucket_entries = o.bucket_entries;
    c.fingerprint_bits = o.fingerprint_bits;
    c.seed = Mix64(o.seed ^ 0xCA4DULL);
    return c;
  }

  static size_t VagueBytes(const Options& o) {
    size_t candidate = static_cast<size_t>(
        static_cast<double>(o.memory_bytes) * o.candidate_fraction);
    size_t rest = o.memory_bytes > candidate ? o.memory_bytes - candidate : 0;
    return rest < 64 ? 64 : rest;
  }

  static int32_t ClampToI32(int64_t v) {
    if (v > INT32_MAX) return INT32_MAX;
    if (v < INT32_MIN) return INT32_MIN;
    return static_cast<int32_t>(v);
  }

  bool ShouldSwap(int64_t estimate, int64_t weakest) {
    switch (options_.election) {
      case ElectionStrategy::kComparative:
        return estimate > candidate_.qweight(weakest);
      case ElectionStrategy::kForceful:
        return true;
      case ElectionStrategy::kProbabilistic: {
        // p = max(est / (est + min), 0), guarding the degenerate denominator.
        const int64_t denom = estimate + candidate_.qweight(weakest);
        if (denom == 0) return estimate > 0;
        const double p =
            static_cast<double>(estimate) / static_cast<double>(denom);
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return rng_.Bernoulli(p);
      }
      case ElectionStrategy::kDecay:
        // Wear the weakest resident down by 1 with probability 1/2 per
        // contender, then compare: residents survive only on sustained
        // Qweight (HeavyKeeper-flavored eviction).
        if (rng_.Bernoulli(0.5)) {
          candidate_.set_qweight(
              weakest,
              SaturatingAdd(candidate_.qweight(weakest), int64_t{-1}));
        }
        return estimate > candidate_.qweight(weakest);
    }
    return false;
  }

  Options options_;
  Criteria default_criteria_;
  CandidatePart candidate_;
  VaguePart<SketchT> vague_;
  bool paper_geometry_;  // InsertStep<kPaperEntries, kPaperDepth> applies
  Rng rng_;
  Stats stats_;
#if QF_METRICS
  // Stats values already published to the global counters; the next flush
  // adds only the delta, keeping the global totals exact and monotone.
  Stats metrics_flushed_;
#endif
};

/// The paper's default configuration: Count sketch vague part with 16-bit
/// saturating counters, comparative election.
using DefaultQuantileFilter = QuantileFilter<CountSketch<int16_t>>;

}  // namespace qf

#endif  // QUANTILEFILTER_CORE_QUANTILE_FILTER_H_
