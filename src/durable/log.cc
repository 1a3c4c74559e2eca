#include "durable/log.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/crc32.h"
#include "common/serialize.h"

namespace qf::durable {

namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".qfwal";

// [u32 len][WrapCrc(payload)] — one frame, emitted as a single Append so a
// torn write is always a strict prefix of exactly one frame.
std::vector<uint8_t> BuildFrame(std::vector<uint8_t> payload) {
  std::vector<uint8_t> wrapped = WrapCrc(std::move(payload));
  std::vector<uint8_t> frame;
  frame.reserve(sizeof(uint32_t) + wrapped.size());
  AppendPod(static_cast<uint32_t>(wrapped.size()), &frame);
  frame.insert(frame.end(), wrapped.begin(), wrapped.end());
  return frame;
}

std::vector<uint8_t> BuildHeaderFrame(uint64_t gen, uint64_t first_seq) {
  std::vector<uint8_t> payload;
  AppendPod(kWalMagic, &payload);
  AppendPod(kWalVersion, &payload);
  AppendPod(gen, &payload);
  AppendPod(first_seq, &payload);
  return BuildFrame(std::move(payload));
}

/// One record as WalkWal hands it to its visitor. `items` points into the
/// frame and may be unaligned: copy before reading.
struct WalRecord {
  uint64_t seq = 0;
  uint32_t count = 0;
  const uint8_t* items = nullptr;
};

struct WalWalk {
  std::string error;         // empty = every rule held
  uint64_t wal_gen = 0;      // expected_gen, or the first header's when 0
  uint64_t next_seq = 0;     // 1 + last record seq read (0 = none)
  uint32_t segments = 0;     // segment files read
  bool stopped = false;      // the visitor ended the walk early
  std::string torn_segment;  // set when the log ends in a torn frame...
  uint64_t torn_offset = 0;  // ...after this many valid bytes
};

WalWalk Fail(WalWalk walk, const std::string& name, const char* why) {
  walk.error = name + ": " + why;
  return walk;
}

// The one segment walk behind ScanWal and ReadWalRange (log.h rules):
// every frame's length and CRC, every header's magic/version, generation
// and first seq, seq contiguity from the first segment read on, and a torn
// frame only at the very end of the log. Records with seq > after_seq go
// to `visit`; returning false stops the walk before that record. With
// `skip_covered`, segments wholly at or below after_seq are not read.
WalWalk WalkWal(Storage& storage, uint64_t expected_gen, uint64_t after_seq,
                bool skip_covered,
                const std::function<bool(const WalRecord&)>& visit) {
  WalWalk walk;
  walk.wal_gen = expected_gen;
  std::vector<std::string> names;
  if (!storage.List(&names)) {
    walk.error = "storage list failed";
    return walk;
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t first_seq = 0;
    if (ParseSegmentName(name, &first_seq)) {
      segments.emplace_back(first_seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());

  // Segment si holds seqs [first_seq, next first_seq - 1], so the first one
  // that can hold after_seq + 1 is the last whose first_seq <= after_seq + 1.
  size_t start = 0;
  for (size_t si = 0; skip_covered && si < segments.size(); ++si) {
    if (segments[si].first <= after_seq + 1) start = si;
  }

  uint64_t expected = 0;  // next record seq we must see; 0 = not yet anchored
  for (size_t si = start; si < segments.size(); ++si) {
    const std::string& name = segments[si].second;
    const bool last_segment = si + 1 == segments.size();
    std::vector<uint8_t> bytes;
    if (!storage.Read(name, &bytes)) {
      return Fail(std::move(walk), name, "unreadable segment");
    }
    ++walk.segments;
    // A torn-header repair truncates a segment to nothing: only ever
    // legitimate as the final segment.
    if (bytes.empty() && !last_segment) {
      return Fail(std::move(walk), name, "empty non-final segment");
    }

    size_t pos = 0;
    bool saw_header = false;
    while (pos < bytes.size()) {
      uint32_t len = 0;
      bool torn = bytes.size() - pos < sizeof(uint32_t);
      if (!torn) {
        std::memcpy(&len, bytes.data() + pos, sizeof(uint32_t));
        torn = bytes.size() - pos - sizeof(uint32_t) < len;
      }
      if (torn) {
        // Incomplete trailing frame: the legitimate residue of a crash
        // mid-append — but only at the very end of the log.
        if (!last_segment) {
          return Fail(std::move(walk), name,
                      "incomplete frame in non-final segment");
        }
        walk.torn_segment = name;
        walk.torn_offset = pos;
        return walk;
      }
      const uint8_t* payload = nullptr;
      size_t payload_size = 0;
      if (UnwrapCrc(bytes.data() + pos + sizeof(uint32_t), len, &payload,
                    &payload_size) != CrcStatus::kOk) {
        // A *complete* frame that fails its CRC is corruption, not a torn
        // write; never guess at it, in any position.
        return Fail(std::move(walk), name, "frame crc mismatch");
      }
      pos += sizeof(uint32_t) + len;

      ByteReader reader(payload, payload_size);
      if (!saw_header) {
        uint32_t magic = 0;
        uint32_t version = 0;
        uint64_t gen = 0;
        uint64_t first_seq = 0;
        if (!reader.Read(&magic) || !reader.Read(&version) ||
            !reader.Read(&gen) || !reader.Read(&first_seq) ||
            reader.remaining() != 0) {
          return Fail(std::move(walk), name, "malformed segment header");
        }
        if (magic != kWalMagic || version != kWalVersion) {
          return Fail(std::move(walk), name, "bad segment magic/version");
        }
        if (walk.wal_gen == 0) walk.wal_gen = gen;
        if (gen != walk.wal_gen) {
          return Fail(std::move(walk), name, "stale-generation segment");
        }
        if (first_seq != segments[si].first) {
          return Fail(std::move(walk), name,
                      "segment name/header first-seq mismatch");
        }
        if (expected == 0) {
          // The first segment read must still hold after_seq + 1; anything
          // later means retention reaped records the caller needs.
          if (first_seq > after_seq + 1) {
            return Fail(std::move(walk), name, "replay gap after checkpoint");
          }
          expected = first_seq;
        } else if (first_seq != expected) {
          return Fail(std::move(walk), name,
                      "segment sequence discontinuity");
        }
        saw_header = true;
        continue;
      }

      WalRecord record;
      uint32_t pad = 0;
      if (!reader.Read(&record.seq) || !reader.Read(&record.count) ||
          !reader.Read(&pad) ||
          reader.remaining() !=
              static_cast<size_t>(record.count) * sizeof(Item)) {
        return Fail(std::move(walk), name, "malformed record");
      }
      if (record.seq != expected) {
        return Fail(std::move(walk), name, "record sequence discontinuity");
      }
      walk.next_seq = ++expected;
      if (record.seq <= after_seq) continue;
      record.items = payload + (payload_size - reader.remaining());
      if (!visit(record)) {
        walk.stopped = true;
        return walk;
      }
    }
  }
  return walk;
}

}  // namespace

std::string SegmentName(uint64_t first_seq) {
  return HexName(kSegmentPrefix, first_seq, kSegmentSuffix);
}

bool ParseSegmentName(const std::string& name, uint64_t* first_seq) {
  return ParseHexName(name, kSegmentPrefix, kSegmentSuffix, first_seq);
}

bool ParseFsyncMode(const std::string& text, FsyncMode* mode) {
  if (text == "none") {
    *mode = FsyncMode::kNone;
  } else if (text == "group") {
    *mode = FsyncMode::kGroup;
  } else {
    return false;
  }
  return true;
}

WalWriter::WalWriter(Storage* storage, WalOptions options)
    : storage_(storage), options_(options) {}

bool WalWriter::Init(uint64_t gen, uint64_t next_seq) {
  gen_ = gen;
  next_seq_ = next_seq;
  sealed_.clear();
  // Pre-crash segments stay sealed on disk until a checkpoint covers them;
  // record them so Retain() can reap across the restart. A record-free
  // leftover can share a name with the segment we are about to open —
  // OpenSegment removes it before writing.
  std::vector<std::string> names;
  if (!storage_->List(&names)) return false;
  for (const std::string& name : names) {
    uint64_t first_seq = 0;
    if (!ParseSegmentName(name, &first_seq)) continue;
    if (first_seq >= next_seq_) continue;  // record-free or colliding
    sealed_.emplace_back(name, first_seq);
  }
  std::sort(sealed_.begin(), sealed_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return OpenSegment();
}

bool WalWriter::OpenSegment() {
  active_name_ = SegmentName(next_seq_);
  active_first_seq_ = next_seq_;
  storage_->Remove(active_name_);  // reap a record-free leftover, if any
  std::vector<uint8_t> frame = BuildHeaderFrame(gen_, next_seq_);
  if (!storage_->Append(active_name_, frame)) return false;
  active_bytes_ = frame.size();
  ++segments_written_;
  return true;
}

bool WalWriter::Append(std::span<const Item> items, uint64_t* seq_out) {
  std::vector<uint8_t> payload;
  payload.reserve(sizeof(uint64_t) + 2 * sizeof(uint32_t) +
                  items.size() * sizeof(Item));
  AppendPod(next_seq_, &payload);
  AppendPod(static_cast<uint32_t>(items.size()), &payload);
  AppendPod(static_cast<uint32_t>(0), &payload);
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(items.data());
  payload.insert(payload.end(), raw, raw + items.size() * sizeof(Item));
  std::vector<uint8_t> frame = BuildFrame(std::move(payload));
  if (!storage_->Append(active_name_, frame)) return false;
  active_bytes_ += frame.size();
  if (seq_out != nullptr) *seq_out = next_seq_;
  ++next_seq_;
  if (active_bytes_ >= options_.segment_bytes) {
    // Seal before rotating so a sealed segment is fully durable (kNone
    // deliberately skips the barrier everywhere).
    if (options_.fsync != FsyncMode::kNone &&
        !storage_->Sync(active_name_)) {
      return false;
    }
    sealed_.emplace_back(active_name_, active_first_seq_);
    return OpenSegment();
  }
  return true;
}

bool WalWriter::Sync() { return storage_->Sync(active_name_); }

void WalWriter::Retain(uint64_t covered_seq) {
  while (!sealed_.empty()) {
    uint64_t next_first =
        sealed_.size() > 1 ? sealed_[1].second : active_first_seq_;
    if (next_first == 0 || next_first - 1 > covered_seq) break;
    storage_->Remove(sealed_.front().first);
    sealed_.erase(sealed_.begin());
  }
}

bool WalWriter::ResetTimeline(uint64_t new_gen) {
  std::vector<std::string> names;
  if (storage_->List(&names)) {
    for (const std::string& name : names) {
      uint64_t first_seq = 0;
      if (ParseSegmentName(name, &first_seq)) storage_->Remove(name);
    }
  }
  gen_ = new_gen;
  next_seq_ = 1;
  sealed_.clear();
  return OpenSegment();
}

LogScan ScanWal(Storage& storage, uint64_t expected_gen, uint64_t applied_seq,
                bool repair_torn_tail) {
  LogScan scan;
  const WalWalk walk = WalkWal(
      storage, expected_gen, applied_seq, /*skip_covered=*/false,
      [&scan](const WalRecord& record) {
        const size_t old_size = scan.tail.size();
        scan.tail.resize(old_size + record.count);
        if (record.count > 0) {
          std::memcpy(scan.tail.data() + old_size, record.items,
                      static_cast<size_t>(record.count) * sizeof(Item));
        }
        ++scan.tail_records;
        return true;
      });
  scan.segments_scanned = walk.segments;
  if (!walk.error.empty()) {
    scan.error = walk.error;
    return scan;
  }
  if (!walk.torn_segment.empty()) {
    scan.torn_truncations = 1;
    if (repair_torn_tail) {
      storage.Truncate(walk.torn_segment, walk.torn_offset);
    }
  }
  scan.ok = true;
  scan.wal_gen = walk.wal_gen;
  scan.next_seq = std::max(applied_seq + 1, walk.next_seq);
  return scan;
}

WalRange ReadWalRange(Storage& storage, uint64_t expected_gen,
                      uint64_t after_seq, size_t max_items,
                      bool (*keep)(const Item&, void* ctx), void* keep_ctx) {
  WalRange range;
  range.next_after = after_seq;
  std::vector<Item> kept;
  const WalWalk walk = WalkWal(
      storage, expected_gen, after_seq, /*skip_covered=*/true,
      [&](const WalRecord& record) {
        kept.clear();
        for (uint32_t i = 0; i < record.count; ++i) {
          Item item{};
          std::memcpy(&item, record.items + i * sizeof(Item), sizeof(Item));
          if (keep == nullptr || keep(item, keep_ctx)) kept.push_back(item);
        }
        // Stop before a record whose items would cross the bound (never
        // split one) — unless nothing was shipped yet: one oversized record
        // must still make progress. The walk stops only at a record it
        // leaves unread, so `exhausted` below is exact.
        const size_t have = range.items.size();
        if (max_items > 0 && have > 0 && have + kept.size() > max_items) {
          return false;
        }
        range.items.insert(range.items.end(), kept.begin(), kept.end());
        range.next_after = record.seq;
        return true;
      });
  if (!walk.error.empty()) {
    range.error = walk.error;
    return range;
  }
  range.ok = true;
  range.exhausted = !walk.stopped;
  return range;
}

}  // namespace qf::durable
