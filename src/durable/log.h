// Write-ahead segment log of ingest batches (DESIGN.md §14).
//
// kivaloo-lbs shape: an append-only sequence of segment files under one
// Storage namespace, each a stream of CRC-framed records, with group commit
// riding the serving reactor loop. The log records *inputs* (ingest
// batches), not filter state — replaying the tail through the normal
// pipeline producers after restoring a checkpoint reconstructs the filter
// bit-identically (single-hash scheme 3 makes insertion deterministic).
//
// On-disk layout
//
//   segment file  seg-%016llx.qfwal         (name = first record seq, hex)
//     frame*                                 (header frame, then records)
//
//   frame         [u32 len][WrapCrc(payload)]          len = wrapped size
//   header        {u32 "QFWL", u32 version=1, u64 wal_gen, u64 first_seq}
//   record        {u64 seq, u32 count, u32 pad0, count x Item}
//
// Every frame reuses the checkpoint CRC envelope (common/crc32.h), so a
// bit flip anywhere in a record is detected by the same machinery that
// guards "QFS4" blobs. Record seqs are globally contiguous from 1 within a
// WAL generation; the generation is bumped (and the log reset) only on
// CONTROL kRestore, which rewrites filter state out-of-band.
//
// Reading rules, enforced by the one segment walk behind both ScanWal
// (boot recovery) and ReadWalRange (segment ship):
//   * a segment whose name disagrees with its header first_seq, whose
//     generation is stale, or whose seqs break contiguity  -> fail closed
//   * a complete frame with a bad CRC, in any position     -> fail closed
//   * a first segment that starts past the caller's start
//     seq + 1 (retention reaped records it still needs)    -> fail closed
//   * an incomplete trailing frame in the LAST segment     -> torn tail:
//     the log ends at the valid prefix (a power cut mid-append legitimately
//     leaves this shape; anything else does not). Boot truncates it.
// "Fail closed" means boot refuses rather than serving a partial replay —
// never a mix of valid and guessed records.

#ifndef QUANTILEFILTER_DURABLE_LOG_H_
#define QUANTILEFILTER_DURABLE_LOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "durable/storage.h"
#include "stream/item.h"

namespace qf::durable {

inline constexpr uint32_t kWalMagic = 0x4C575146;  // "QFWL" little-endian
inline constexpr uint32_t kWalVersion = 1;

/// Segment file name for a first-record seq ("seg-%016x.qfwal").
std::string SegmentName(uint64_t first_seq);
/// Inverse of SegmentName; false if `name` is not a segment file.
bool ParseSegmentName(const std::string& name, uint64_t* first_seq);

enum class FsyncMode {
  kNone,   // page cache only: survives SIGKILL, not power loss
  kGroup,  // fsync on the serving fence cadence (group commit)
};

/// "none" | "group"; false for anything else.
bool ParseFsyncMode(const std::string& text, FsyncMode* mode);

struct WalOptions {
  uint64_t segment_bytes = 4u << 20;  // rotate when active segment exceeds
  FsyncMode fsync = FsyncMode::kGroup;
};

/// Appender. Single-writer: callers serialize Append/Sync/Retain themselves
/// (QfServer holds its WAL mutex across the append + ack pairing anyway).
class WalWriter {
 public:
  WalWriter(Storage* storage, WalOptions options);

  /// Starts logging at `next_seq` in generation `gen`, always into a fresh
  /// segment (existing segments are never reopened; a leftover record-free
  /// segment with the same name is removed). Discovers pre-existing sealed
  /// segments so Retain() can reap them across restarts.
  bool Init(uint64_t gen, uint64_t next_seq);

  /// Logs one ingest batch as a record; `*seq_out` gets its seq. Rotates
  /// the segment afterwards if the size threshold is crossed.
  bool Append(std::span<const Item> items, uint64_t* seq_out);

  /// Group-commit barrier: makes everything appended so far durable.
  bool Sync();

  /// Deletes sealed segments whose every record has seq <= covered_seq
  /// (i.e. is captured by the checkpoint covering covered_seq). The active
  /// segment is never deleted.
  void Retain(uint64_t covered_seq);

  /// Deletes ALL segments and restarts the log at seq 1 in `new_gen`.
  /// Used when CONTROL kRestore replaces filter state out-of-band.
  bool ResetTimeline(uint64_t new_gen);

  uint64_t next_seq() const { return next_seq_; }
  uint64_t wal_gen() const { return gen_; }
  uint64_t segments_written() const { return segments_written_; }

 private:
  bool OpenSegment();

  Storage* storage_;
  WalOptions options_;
  uint64_t gen_ = 0;
  uint64_t next_seq_ = 1;
  std::string active_name_;
  uint64_t active_first_seq_ = 0;
  uint64_t active_bytes_ = 0;
  uint64_t segments_written_ = 0;
  // Sealed segments in order, as (name, first_seq); a sealed segment's last
  // record seq is the next entry's first_seq - 1 (or active_first_seq_ - 1).
  std::vector<std::pair<std::string, uint64_t>> sealed_;
};

/// Result of scanning the log at boot.
struct LogScan {
  bool ok = false;
  std::string error;           // set when !ok (fail-closed reason)
  std::vector<Item> tail;      // items from records with seq > applied_seq
  uint64_t tail_records = 0;   // record count contributing to `tail`
  uint64_t next_seq = 1;       // 1 + last record seq seen (any segment)
  uint64_t wal_gen = 0;        // generation in effect (from checkpoint or log)
  uint32_t segments_scanned = 0;
  uint32_t torn_truncations = 0;  // incomplete trailing frames repaired
};

/// Scans all segments under `storage` against the rules above.
/// `expected_gen` comes from the newest checkpoint (0 when none: the first
/// segment's generation is adopted); `applied_seq` is that checkpoint's
/// covered seq — records at or below it are verified for integrity but not
/// returned. With `repair_torn_tail` the torn trailing frame is physically
/// truncated (server boot); without it the scan is read-only (crash-harness
/// oracle pass).
LogScan ScanWal(Storage& storage, uint64_t expected_gen, uint64_t applied_seq,
                bool repair_torn_tail);

/// Result of a bounded range read (segment ship, DESIGN.md §16).
struct WalRange {
  bool ok = false;
  std::string error;       // set when !ok
  std::vector<Item> items;  // items passing `keep`, in WAL order
  uint64_t next_after = 0;  // after_seq for the next call
  bool exhausted = false;   // no records beyond next_after existed
};

/// Reads records with seq in (after_seq, ...] back out of the log, in
/// order, stopping before the first record whose kept items would push
/// `items` past max_items (0 = no bound). Records are never split:
/// replaying a prefix of a batch would diverge from the donor's insertion
/// order; a first record larger than the bound still ships whole. `keep`
/// filters items — segment ship passes the moving slot's ShardFor
/// predicate so catch-up traffic is proportional to one shard; null keeps
/// everything. Records with no kept item still advance next_after, even
/// past a reached bound.
/// Same rules as ScanWal, but segments wholly at or below after_seq are
/// not read, and a torn trailing frame is left alone (the writer owns the
/// tail).
WalRange ReadWalRange(Storage& storage, uint64_t expected_gen,
                      uint64_t after_seq, size_t max_items,
                      bool (*keep)(const Item&, void* ctx), void* keep_ctx);

}  // namespace qf::durable

#endif  // QUANTILEFILTER_DURABLE_LOG_H_
