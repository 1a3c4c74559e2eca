// Differential fuzzing harness: drives the whole detector stack in lockstep
// through one decoded op schedule and cross-checks every observable.
//
// Tracks under test, all fed the same logical stream:
//   * scalar   — QuantileFilter driven item-at-a-time (the sequential scalar
//                reference everything else must match bit-for-bit);
//   * batch    — an identically-constructed QuantileFilter driven through
//                InsertBatch with arbitrary split points (including empty
//                spans and spans shorter than the prefetch window);
//   * sharded  — a sequential ShardedQuantileFilter versus a second one fed
//                by IngestPipeline with randomized batch/ring geometry; the
//                pipeline run must be per-shard bit-identical (report-key
//                streams, aggregate stats, serialized shard state);
//   * oracles  — in exact-regime configs (integral Qweights, key universe
//                resident in the candidate part) an integer per-key reference
//                model and, for fixed-criteria configs, the zero-error
//                ExactDetector must agree with the scalar filter report for
//                report and query for query.
//
// Checked at flush barriers and randomized checkpoints: report streams
// (op index + key), the full Stats block, serialized state equality,
// restore round-trips, and the QFS2/key-mapping-scheme rejection property
// (a checkpoint stamped with the modulo-era scheme must NOT restore — if a
// future change reverts that guard, the harness fails on every checkpoint).
//
// Failures never assert: RunFuzzCase returns a FuzzResult naming the op
// index and mismatch, which qf_fuzz turns into a replay token and a
// delta-debugged minimal reproducer.

#ifndef QUANTILEFILTER_TESTING_DIFFERENTIAL_HARNESS_H_
#define QUANTILEFILTER_TESTING_DIFFERENTIAL_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/exact_detector.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/quantile_filter.h"
#include "core/sharded_filter.h"
#include "durable/checkpoint.h"
#include "durable/log.h"
#include "durable/recovery.h"
#include "durable/storage.h"
#include "parallel/pipeline.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "stream/item.h"
#include "testing/op_stream.h"

namespace qf::testing {

/// Vague-part engine of the filters under test.
enum class SketchKind : uint8_t {
  kCountSketch32 = 0,
  kCountSketch16 = 1,
  kCountMin16 = 2,
};

/// Deliberate defects injected into one track to prove the harness catches
/// real bugs (and to give the minimizer something to shrink). kNone in
/// production fuzzing; the others are driven by tests and `qf_fuzz --fault=`.
enum class Fault : uint32_t {
  kNone = 0,
  /// The batch path silently drops the last buffered item of a flush.
  kDropBatchItem = 1,
  /// The batch path processes the first two split segments in swapped order.
  kReorderBatchSplits = 2,
  /// Simulates reverting the QFS2/key-mapping-scheme rejection: checkpoints
  /// are restored without the stale-scheme forgery, so the harness's
  /// "stale tag must be rejected" property observes an accepted restore.
  kNoTagReject = 3,
};
inline constexpr uint32_t kNumFaults = 4;

const char* FaultName(Fault fault);
bool ParseFault(std::string_view name, Fault* out);

/// One fuzzing configuration: filter geometry, election strategy, criteria
/// set and the value levels the schedule's value selectors map onto.
struct FuzzConfig {
  const char* name;
  SketchKind sketch;
  size_t memory_bytes;
  int num_shards;
  ElectionStrategy election;
  uint32_t key_universe;
  /// Integral Qweights + universe resident in the candidate part: the filter
  /// is semantically exact and must match the per-key oracles op for op.
  bool exact_regime;
  /// Additionally drive the zero-error ExactDetector (requires a single
  /// fixed criteria, where count-domain and weight-domain tests coincide).
  bool use_exact_detector;
  /// Merge ops build a compatible donor and MergeFrom it (approx configs
  /// only; the per-key oracles cannot mirror merge-without-report).
  bool allow_merge;
  std::vector<Criteria> criteria;    // [0] is the default criteria
  std::vector<double> value_levels;  // value_sel maps into this table
  /// Vague-part memory layout for every filter in the ensemble. Blocked is
  /// only effective for small signed integral CountSketch counters; other
  /// sketches silently run classic, so pair kBlocked with a kind that
  /// supports it.
  VagueLayout layout = VagueLayout::kClassic;
  /// Durable-replay track: every sharded-track insert is also appended to a
  /// MemStorage-backed WAL; at each sharded barrier the harness "crashes"
  /// (recovers checkpoint + log tail into a fresh sharded filter) and the
  /// recovered state must match the sequential sharded track bit-for-bit.
  /// A second recovery from a torn copy of the storage checks the
  /// truncated-tail path replays exactly a prefix. rng-chosen checkpoints
  /// and retention run between barriers.
  bool durable_replay = false;
};

/// The built-in configuration matrix (seed % size selects one per run).
const std::vector<FuzzConfig>& FuzzConfigs();

struct FuzzResult {
  bool failed = false;
  size_t failing_op = 0;  // index into the op vector
  std::string message;
};

/// Runs the full differential ensemble. `harness_seed` fixes every auxiliary
/// random choice (batch split points, donor streams, pipeline geometry), so
/// a (config, fault, harness_seed, ops) tuple replays bit-identically.
FuzzResult RunFuzzCase(const FuzzConfig& config, Fault fault,
                       uint64_t harness_seed, const std::vector<Op>& ops);

namespace internal {

/// Integer per-key reference model (generalizes the one in
/// tests/differential_test.cc to per-insert criteria). Valid only when every
/// criteria in play has an integral positive weight.
class ReferenceModel {
 public:
  bool Insert(uint64_t key, double value, const Criteria& c) {
    int64_t& qw = qweights_[key];
    qw += c.ValueIsAbnormal(value) ? c.positive_floor() : -1;
    if (qw >= c.report_threshold()) {
      qw = 0;
      return true;
    }
    return false;
  }

  int64_t Query(uint64_t key) const {
    auto it = qweights_.find(key);
    return it == qweights_.end() ? 0 : it->second;
  }

  void Delete(uint64_t key) { qweights_.erase(key); }
  void Reset() { qweights_.clear(); }

 private:
  std::unordered_map<uint64_t, int64_t> qweights_;
};

template <typename SketchT>
class DifferentialHarness {
 public:
  using Filter = QuantileFilter<SketchT>;
  using Sharded = ShardedQuantileFilter<SketchT>;
  using Pipeline = IngestPipeline<SketchT>;

  DifferentialHarness(const FuzzConfig& config, Fault fault,
                      uint64_t harness_seed)
      : config_(config),
        fault_(fault),
        rng_(Mix64(harness_seed ^ 0xD1FF0F5EULL)),
        scalar_(MakeOptions(config), config.criteria[0]),
        batch_(MakeOptions(config), config.criteria[0]),
        sharded_seq_(MakeOptions(config), config.criteria[0],
                     config.num_shards),
        sharded_pipe_(MakeOptions(config), config.criteria[0],
                      config.num_shards) {
    if (config.use_exact_detector) exact_.emplace(config.criteria[0]);
    if (config.durable_replay) {
      wal_storage_.emplace();
      durable::WalOptions wopts;
      wopts.segment_bytes = 1024;  // tiny: rotation runs on every schedule
      wopts.fsync = durable::FsyncMode::kNone;
      wal_.emplace(&*wal_storage_, wopts);
      wal_->Init(1, 1);
      ckpts_.emplace(&*wal_storage_);
    }
  }

  FuzzResult Run(const std::vector<Op>& ops) {
    result_ = FuzzResult{};
    if (config_.exact_regime && !ExactRegimeResident()) {
      Fail(0,
           "config error: exact-regime key universe does not fit the "
           "candidate part collision-free");
      return result_;
    }
    for (size_t i = 0; i < ops.size() && !result_.failed; ++i) {
      Apply(i, ops[i]);
    }
    if (!result_.failed) {
      // Final barrier: even a schedule with no explicit checkpoint op ends
      // with the full comparison, so minimal reproducers stay minimal.
      const size_t end = ops.size();
      FlushBatch(end);
      CheckReports(end);
      CheckStats(end);
      CheckSerializedState(end);
      DrainAndCompareSharded(end);
    }
    return result_;
  }

 private:
  struct Report {
    size_t op;
    uint64_t key;

    friend bool operator==(const Report& a, const Report& b) {
      return a.op == b.op && a.key == b.key;
    }
  };

  static typename Filter::Options MakeOptions(const FuzzConfig& c) {
    typename Filter::Options o;
    o.memory_bytes = c.memory_bytes;
    o.election = c.election;
    o.vague_layout = c.layout;
    return o;
  }

  uint64_t KeyFor(uint16_t raw) const {
    return 1 + (raw % config_.key_universe);
  }
  double ValueFor(uint8_t sel) const {
    return config_.value_levels[sel % config_.value_levels.size()];
  }
  const Criteria& Current() const { return config_.criteria[criteria_idx_]; }

  /// True iff every key of the universe can live in the candidate part at
  /// once (no bucket holds more keys than it has entries) — the structural
  /// precondition for exact-regime oracle equality. Deterministic per
  /// config: bucket placement depends only on the filter seed.
  bool ExactRegimeResident() const {
    const CandidatePart& part = scalar_.candidate_part();
    std::unordered_map<uint32_t, int> load;
    for (uint64_t key = 1; key <= config_.key_universe; ++key) {
      if (++load[part.BucketOf(key)] > part.bucket_entries()) return false;
    }
    return true;
  }

  void Apply(size_t i, const Op& op) {
    switch (op.kind) {
      case OpKind::kInsert:
        DoInsert(i, op);
        break;
      case OpKind::kFlush:
        FlushBatch(i);
        CheckReports(i);
        break;
      case OpKind::kQuery:
        DoQuery(i, op);
        break;
      case OpKind::kDelete:
        DoDelete(i, op);
        break;
      case OpKind::kCriteriaChange:
        FlushBatch(i);
        CheckReports(i);
        criteria_idx_ = op.aux % config_.criteria.size();
        break;
      case OpKind::kMerge:
        DoMerge(i, op);
        break;
      case OpKind::kReset:
        DoReset(i);
        break;
      case OpKind::kCheckpoint:
        DoCheckpoint(i, op);
        break;
    }
  }

  void DoInsert(size_t i, const Op& op) {
    const uint64_t key = KeyFor(op.key);
    const double value = ValueFor(op.value_sel);
    const Criteria& c = Current();
    const bool reported = scalar_.Insert(key, value, c);
    if (reported) scalar_reports_.push_back({i, key});
    buffer_.push_back(Item{key, value});
    buffer_ops_.push_back(i);
    if (config_.exact_regime) {
      if (model_.Insert(key, value, c) != reported) {
        Fail(i, Describe("scalar filter vs integer reference model report "
                         "mismatch on insert",
                         key));
        return;
      }
      if (exact_ && exact_->Insert(key, value, c) != reported) {
        Fail(i, Describe("scalar filter vs ExactDetector report mismatch on "
                         "insert",
                         key));
        return;
      }
    }
    // The sharded tracks replay the default-criteria view of the stream at
    // the next full checkpoint (both lazily, so they stay aligned).
    sharded_pending_.push_back(Item{key, value});
    if (config_.durable_replay) {
      // Log-before-apply, exactly like the serving layer: the WAL sees the
      // item before any filter does, so a "crash" at a barrier can always
      // rebuild the sequential track from checkpoint + tail.
      const Item logged{key, value};
      if (!wal_->Append(std::span<const Item>(&logged, 1), nullptr)) {
        Fail(i, "durable-replay WAL append failed");
      }
    }
  }

  /// Drains the batch buffer through InsertBatch with arbitrary split
  /// points: segment lengths span [1, 2*kBatchWindow] so calls cover empty,
  /// sub-window, exact-window and multi-window spans.
  void FlushBatch(size_t /*i*/) {
    if (buffer_.empty()) return;
    if (fault_ == Fault::kDropBatchItem) {
      buffer_.pop_back();
      buffer_ops_.pop_back();
      if (buffer_.empty()) return;
    }
    std::vector<std::pair<size_t, size_t>> segments;  // (begin, length)
    for (size_t pos = 0; pos < buffer_.size();) {
      const uint64_t cap = std::min<uint64_t>(buffer_.size() - pos,
                                              2 * Filter::kBatchWindow);
      const size_t len = static_cast<size_t>(1 + rng_.NextBounded(cap));
      segments.emplace_back(pos, len);
      pos += len;
    }
    if (fault_ == Fault::kReorderBatchSplits && segments.size() >= 2) {
      std::swap(segments[0], segments[1]);
    }
    for (const auto& [begin, len] : segments) {
      const std::span<const Item> span(buffer_.data() + begin, len);
      batch_.InsertBatch(span, Current(),
                         [this, begin](size_t idx, const Item& item) {
                           batch_reports_.push_back(
                               {buffer_ops_[begin + idx], item.key});
                         });
      if ((rng_.Next() & 7u) == 0) {
        // Interleave empty-span calls: they must be observable no-ops.
        batch_.InsertBatch(std::span<const Item>{}, Current());
      }
    }
    buffer_.clear();
    buffer_ops_.clear();
  }

  void DoQuery(size_t i, const Op& op) {
    FlushBatch(i);
    CheckReports(i);
    if (result_.failed) return;
    const uint64_t key = KeyFor(op.key);
    const int64_t qs = scalar_.QueryQweight(key);
    const int64_t qb = batch_.QueryQweight(key);
    if (qs != qb) {
      Fail(i, Describe("QueryQweight mismatch between scalar and batch-driven "
                       "filters",
                       key, qs, qb));
      return;
    }
    if (config_.exact_regime) {
      if (const int64_t qm = model_.Query(key); qm != qs) {
        Fail(i, Describe("QueryQweight mismatch between scalar filter and "
                         "integer reference model",
                         key, qs, qm));
        return;
      }
      // The detector accumulates delta/(1-delta) in doubles, so its Qweight
      // sits within an ulp-scale epsilon of the filter's integer arithmetic;
      // rounding to the nearest integer recovers the exact value.
      if (exact_ && std::llround(exact_->Qweight(key)) != qs) {
        Fail(i, Describe("QueryQweight mismatch between scalar filter and "
                         "ExactDetector",
                         key, qs, std::llround(exact_->Qweight(key))));
      }
    }
  }

  void DoDelete(size_t i, const Op& op) {
    FlushBatch(i);
    CheckReports(i);
    if (result_.failed) return;
    const uint64_t key = KeyFor(op.key);
    scalar_.Delete(key);
    batch_.Delete(key);
    if (config_.exact_regime) {
      model_.Delete(key);
      if (exact_) exact_->Delete(key);
    }
    // The sharded tracks deliberately see an insert-only stream; delete
    // coverage lives on the scalar/batch/oracle tracks.
  }

  void DoMerge(size_t i, const Op& op) {
    if (!config_.allow_merge) return;  // oracles cannot mirror merges
    FlushBatch(i);
    CheckReports(i);
    if (result_.failed) return;
    Filter donor(MakeOptions(config_), config_.criteria[0]);
    const int items = 1 + static_cast<int>(op.aux % 12);
    for (int k = 0; k < items; ++k) {
      donor.Insert(1 + rng_.NextBounded(config_.key_universe),
                   ValueFor(static_cast<uint8_t>(rng_.Next() & 0xFF)));
    }
    const bool scalar_ok = scalar_.MergeFrom(donor);
    const bool batch_ok = batch_.MergeFrom(donor);
    if (!scalar_ok || !batch_ok) {
      Fail(i, "MergeFrom of a structurally compatible donor was rejected");
    }
  }

  void DoReset(size_t i) {
    FlushBatch(i);
    CheckReports(i);
    if (result_.failed) return;
    scalar_.Reset();
    batch_.Reset();
    if (config_.exact_regime) {
      model_.Reset();
      if (exact_) exact_->Reset();
    }
    // Both sharded filters are aligned (last drained at the same barrier);
    // dropping the pending slice keeps them aligned without a drain.
    sharded_pending_.clear();
    sharded_seq_.Reset();
    sharded_pipe_.Reset();
    if (config_.durable_replay) {
      // Mirrors CONTROL kRestore: the old log describes a filter that no
      // longer exists, so the generation bumps and history is dropped. The
      // anchor full checkpoint is not optional — Reset() clears counters but
      // leaves each shard's probabilistic-rounding generator evolved, so
      // replay-from-empty with freshly seeded generators could never be
      // bit-identical. The anchor pins the post-reset state, RNG included.
      if (!wal_->ResetTimeline(wal_->wal_gen() + 1)) {
        Fail(i, "durable-replay WAL ResetTimeline failed");
        return;
      }
      ckpts_->RemoveAll();
      if (!ckpts_->Write(durable_next_id_++, wal_->wal_gen(), 0,
                         sharded_seq_.SerializeState(),
                         durable::GatherRngStates(sharded_seq_))) {
        Fail(i, "durable-replay anchor checkpoint write failed");
        return;
      }
    }
  }

  /// aux picks the checkpoint depth: every checkpoint compares reports and
  /// stats; every 4th adds serialized-state checks; every 8th drains the
  /// sharded/pipeline tracks (thread spawns, so rarer).
  void DoCheckpoint(size_t i, const Op& op) {
    FlushBatch(i);
    CheckReports(i);
    CheckStats(i);
    if (result_.failed) return;
    if ((op.aux & 3u) == 0) CheckSerializedState(i);
    if (result_.failed) return;
    if ((op.aux & 7u) == 0) DrainAndCompareSharded(i);
  }

  void CheckReports(size_t i) {
    if (result_.failed || scalar_reports_ == batch_reports_) return;
    size_t d = 0;
    while (d < scalar_reports_.size() && d < batch_reports_.size() &&
           scalar_reports_[d] == batch_reports_[d]) {
      ++d;
    }
    std::ostringstream msg;
    msg << "report streams diverge at report #" << d << ": scalar has ";
    if (d < scalar_reports_.size()) {
      msg << "(op " << scalar_reports_[d].op << ", key "
          << scalar_reports_[d].key << ")";
    } else {
      msg << "nothing";
    }
    msg << ", batch has ";
    if (d < batch_reports_.size()) {
      msg << "(op " << batch_reports_[d].op << ", key "
          << batch_reports_[d].key << ")";
    } else {
      msg << "nothing";
    }
    Fail(i, msg.str());
  }

  void CheckStats(size_t i) {
    if (result_.failed) return;
    const auto& a = scalar_.stats();
    const auto& b = batch_.stats();
    const auto diff = [&](const char* field, uint64_t x,
                          uint64_t y) -> bool {
      if (x == y) return false;
      std::ostringstream msg;
      msg << "stats." << field << " diverged: scalar " << x << " vs batch "
          << y;
      Fail(i, msg.str());
      return true;
    };
    if (diff("items", a.items, b.items)) return;
    if (diff("reports", a.reports, b.reports)) return;
    if (diff("candidate_hits", a.candidate_hits, b.candidate_hits)) return;
    if (diff("admissions", a.admissions, b.admissions)) return;
    if (diff("vague_inserts", a.vague_inserts, b.vague_inserts)) return;
    diff("swaps", a.swaps, b.swaps);
  }

  void CheckSerializedState(size_t i) {
    if (result_.failed) return;
    const std::vector<uint8_t> a = scalar_.SerializeState();
    const std::vector<uint8_t> b = batch_.SerializeState();
    if (a != b) {
      Fail(i, "serialized state of scalar- and batch-driven filters diverged");
      return;
    }
    Filter restored(MakeOptions(config_), config_.criteria[0]);
    if (!restored.RestoreState(a)) {
      Fail(i, "RestoreState rejected a checkpoint it just produced");
      return;
    }
    if (restored.SerializeState() != a) {
      Fail(i, "serialize -> restore -> serialize is not a fixed point");
      return;
    }
    // Stale key-mapping-scheme rejection (the PR 1 regression): a checkpoint
    // stamped with the modulo-era scheme must not restore. Under
    // Fault::kNoTagReject the forgery is skipped, which simulates the guard
    // being reverted — the property check below must then fire.
    std::vector<uint8_t> forged = a;
    if (fault_ != Fault::kNoTagReject) {
      const uint32_t stale = kKeyMappingScheme - 1;
      std::memcpy(forged.data() + sizeof(uint32_t), &stale, sizeof(stale));
    }
    if (restored.RestoreState(forged)) {
      Fail(i,
           "checkpoint with a stale key-mapping scheme tag was accepted by "
           "RestoreState");
    }
  }

  /// Replays the pending default-criteria insert slice into both sharded
  /// tracks — sequentially into one, through a fresh IngestPipeline with
  /// randomized geometry into the other — and requires bit-identical
  /// per-shard report streams, stats and serialized state.
  void DrainAndCompareSharded(size_t i) {
    if (result_.failed) return;
    const size_t shards = static_cast<size_t>(config_.num_shards);
    std::vector<std::vector<uint64_t>> seq_keys(shards);
    uint64_t seq_reports = 0;
    for (const Item& item : sharded_pending_) {
      const int s = sharded_seq_.ShardFor(item.key);
      if (sharded_seq_.Insert(item.key, item.value)) {
        seq_keys[static_cast<size_t>(s)].push_back(item.key);
        ++seq_reports;
      }
    }

    typename Pipeline::Options popts;
    popts.batch_size = 1 + rng_.NextBounded(Pipeline::kMaxBatch);
    popts.ring_batches = 2 + rng_.NextBounded(14);  // tiny rings: wrap + stall
    popts.collect_reported_keys = true;
    Pipeline pipeline(sharded_pipe_, popts);
    const uint64_t pipe_reports = pipeline.RunTrace(sharded_pending_);
    const typename Pipeline::Totals totals = pipeline.totals();

    if (totals.items_dispatched != sharded_pending_.size() ||
        totals.items_processed != sharded_pending_.size()) {
      std::ostringstream msg;
      msg << "pipeline lost items: dispatched " << totals.items_dispatched
          << ", processed " << totals.items_processed << ", expected "
          << sharded_pending_.size();
      Fail(i, msg.str());
      return;
    }
    if (pipe_reports != seq_reports) {
      std::ostringstream msg;
      msg << "pipeline reports (" << pipe_reports
          << ") != sequential sharded reports (" << seq_reports << ")";
      Fail(i, msg.str());
      return;
    }
    for (size_t s = 0; s < shards; ++s) {
      if (pipeline.reported_keys(static_cast<int>(s)) != seq_keys[s]) {
        std::ostringstream msg;
        msg << "shard " << s << " report-key stream mismatch between "
            << "pipeline and sequential sharded runs";
        Fail(i, msg.str());
        return;
      }
      if (sharded_seq_.shard(static_cast<int>(s)).SerializeState() !=
          sharded_pipe_.shard(static_cast<int>(s)).SerializeState()) {
        std::ostringstream msg;
        msg << "shard " << s << " serialized state mismatch between pipeline "
            << "and sequential sharded runs";
        Fail(i, msg.str());
        return;
      }
    }
    const auto sa = sharded_seq_.AggregateStats();
    const auto sb = sharded_pipe_.AggregateStats();
    if (sa.items != sb.items || sa.reports != sb.reports ||
        sa.candidate_hits != sb.candidate_hits ||
        sa.admissions != sb.admissions ||
        sa.vague_inserts != sb.vague_inserts || sa.swaps != sb.swaps) {
      Fail(i, "aggregate stats mismatch between pipeline and sequential "
              "sharded runs");
      return;
    }

    // Sharded checkpoint properties: round-trip plus header forgeries.
    const std::vector<uint8_t> state = sharded_pipe_.SerializeState();
    Sharded restored(MakeOptions(config_), config_.criteria[0],
                     config_.num_shards);
    if (!restored.RestoreState(state)) {
      Fail(i, "sharded RestoreState rejected a checkpoint it just produced");
      return;
    }
    std::vector<uint8_t> forged = state;
    if (fault_ != Fault::kNoTagReject) {
      const uint32_t stale = kKeyMappingScheme - 1;
      std::memcpy(forged.data() + sizeof(uint32_t), &stale, sizeof(stale));
    }
    if (restored.RestoreState(forged)) {
      Fail(i,
           "sharded checkpoint with a stale key-mapping scheme tag was "
           "accepted by RestoreState");
      return;
    }
    std::vector<uint8_t> wrong_shards = state;
    const uint32_t bad_count = static_cast<uint32_t>(config_.num_shards) + 1;
    std::memcpy(wrong_shards.data() + 2 * sizeof(uint32_t), &bad_count,
                sizeof(bad_count));
    if (restored.RestoreState(wrong_shards)) {
      Fail(i,
           "sharded checkpoint with a mismatched shard count was accepted by "
           "RestoreState");
      return;
    }
    if (config_.durable_replay) CheckDurableReplay(i);
    sharded_pending_.clear();
  }

  /// The durable-replay track's crash point: maybe write a durable
  /// checkpoint of the sequential sharded filter, then recover from storage
  /// as a cold boot would — checkpoint + WAL tail — into a fresh sharded
  /// filter, and require per-shard bit-identity with the filter that never
  /// crashed. A second recovery runs against a copy of
  /// the storage with the last segment torn mid-byte, and must come back
  /// with exactly a prefix of the clean tail.
  void CheckDurableReplay(size_t i) {
    if (result_.failed) return;
    const uint32_t r = static_cast<uint32_t>(rng_.Next());
    if ((r & 1u) != 0) {
      const uint64_t covered = wal_->next_seq() - 1;
      const uint64_t id = durable_next_id_++;
      if (!ckpts_->Write(id, wal_->wal_gen(), covered,
                         sharded_seq_.SerializeState(),
                         durable::GatherRngStates(sharded_seq_))) {
        Fail(i, "durable-replay checkpoint write failed");
        return;
      }
      wal_->Retain(covered);
      ckpts_->Retain(id);
    }

    durable::Recovered rec = durable::Recover(*wal_storage_, {});
    if (!rec.ok) {
      Fail(i, "durable-replay recovery failed: " + rec.error);
      return;
    }
    Sharded recovered(MakeOptions(config_), config_.criteria[0],
                      config_.num_shards);
    std::string err;
    if (!durable::ApplyCheckpoint(rec, &recovered, &err)) {
      Fail(i, "durable-replay checkpoint restore failed: " + err);
      return;
    }
    for (const Item& item : rec.tail) recovered.Insert(item.key, item.value);
    for (int s = 0; s < config_.num_shards; ++s) {
      if (recovered.shard(s).SerializeState() !=
          sharded_seq_.shard(s).SerializeState()) {
        std::ostringstream msg;
        msg << "durable-replay shard " << s << " state diverged after "
            << "checkpoint + tail recovery (" << rec.tail_records
            << " tail records)";
        Fail(i, msg.str());
        return;
      }
    }

    // Torn-tail crash: shear the newest segment mid-frame and recover
    // read-only. The result must be the clean tail minus a suffix — never a
    // failure, never extra or reordered items.
    durable::MemStorage torn;
    std::string last_segment;
    for (const auto& [name, bytes] : wal_storage_->blobs()) {
      torn.blobs()[name] = bytes;
      uint64_t first_seq;
      if (durable::ParseSegmentName(name, &first_seq)) last_segment = name;
    }
    if (!last_segment.empty()) {
      std::vector<uint8_t>& seg = torn.blobs()[last_segment];
      if (!seg.empty()) {
        seg.resize(seg.size() - 1 - rng_.NextBounded(seg.size()));
      }
    }
    durable::Recovered trec = durable::Recover(torn, {});
    if (!trec.ok) {
      Fail(i, "durable-replay torn-tail recovery failed closed: " +
                  trec.error);
      return;
    }
    if (trec.tail.size() > rec.tail.size() ||
        !std::equal(trec.tail.begin(), trec.tail.end(), rec.tail.begin(),
                    [](const Item& a, const Item& b) {
                      return a.key == b.key && a.value == b.value;
                    })) {
      Fail(i,
           "durable-replay torn-tail recovery is not a prefix of the clean "
           "tail");
    }
  }

  static std::string Describe(const char* what, uint64_t key) {
    std::ostringstream msg;
    msg << what << " (key " << key << ")";
    return msg.str();
  }
  static std::string Describe(const char* what, uint64_t key, int64_t lhs,
                              int64_t rhs) {
    std::ostringstream msg;
    msg << what << " (key " << key << ": " << lhs << " vs " << rhs << ")";
    return msg.str();
  }

  void Fail(size_t op, std::string message) {
    if (result_.failed) return;
    result_.failed = true;
    result_.failing_op = op;
    result_.message = std::move(message);
  }

  const FuzzConfig& config_;
  const Fault fault_;
  Rng rng_;  // harness-level randomness: splits, donors, pipeline geometry

  Filter scalar_;
  Filter batch_;
  std::vector<Item> buffer_;       // batch track: items awaiting InsertBatch
  std::vector<size_t> buffer_ops_; // originating op index per buffered item
  std::vector<Report> scalar_reports_;
  std::vector<Report> batch_reports_;

  Sharded sharded_seq_;
  Sharded sharded_pipe_;
  std::vector<Item> sharded_pending_;

  ReferenceModel model_;
  std::optional<ExactDetector> exact_;

  // Durable-replay track (config_.durable_replay only).
  std::optional<durable::MemStorage> wal_storage_;
  std::optional<durable::WalWriter> wal_;
  std::optional<durable::CheckpointStore> ckpts_;
  uint64_t durable_next_id_ = 1;

  size_t criteria_idx_ = 0;
  FuzzResult result_;
};

}  // namespace internal
}  // namespace qf::testing

#endif  // QUANTILEFILTER_TESTING_DIFFERENTIAL_HARNESS_H_
