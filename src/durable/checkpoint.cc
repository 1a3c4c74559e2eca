#include "durable/checkpoint.h"

#include <cstring>
#include <map>

#include "common/crc32.h"
#include "common/serialize.h"

namespace qf::durable {

namespace {

constexpr char kCkptPrefix[] = "ckpt-";
constexpr char kCkptSuffix[] = ".qfck";
constexpr size_t kRngBytes = sizeof(RngState);

// CRC-unwraps and parses one checkpoint file into `out`; false on any
// inconsistency (including an id that disagrees with the file name, or the
// parent link / kind byte of an older build's delta file).
bool ParseCheckpointFile(const std::vector<uint8_t>& bytes, uint64_t name_id,
                         LoadedCheckpoint* out) {
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  if (UnwrapCrc(bytes, &payload, &payload_size) != CrcStatus::kOk) {
    return false;
  }
  ByteReader reader(payload, payload_size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t parent_id = 0;
  uint8_t kind = 0;
  uint32_t rng_shards = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&out->id) || !reader.Read(&parent_id) ||
      !reader.Read(&out->wal_gen) ||
      !reader.Read(&out->covered_seq) || !reader.Read(&kind) ||
      !reader.Read(&rng_shards)) {
    return false;
  }
  if (magic != kCheckpointMagic || version != kCheckpointVersion ||
      out->id != name_id || parent_id != 0 || kind != 0 ||
      reader.remaining() < static_cast<uint64_t>(rng_shards) * kRngBytes) {
    return false;
  }
  // ByteReader has no raw-span read; the body continues at its cursor.
  const uint8_t* cursor = payload + (payload_size - reader.remaining());
  out->rng.resize(rng_shards);
  for (RngState& rng : out->rng) {
    std::memcpy(rng.data(), cursor, kRngBytes);
    cursor += kRngBytes;
  }
  out->state.assign(cursor, payload + payload_size);
  return true;
}

}  // namespace

std::string CheckpointName(uint64_t id) {
  return HexName(kCkptPrefix, id, kCkptSuffix);
}

bool ParseCheckpointName(const std::string& name, uint64_t* id) {
  return ParseHexName(name, kCkptPrefix, kCkptSuffix, id);
}

bool CheckpointStore::Write(uint64_t id, uint64_t wal_gen,
                            uint64_t covered_seq,
                            const std::vector<uint8_t>& state,
                            const std::vector<RngState>& rng) {
  std::vector<uint8_t> payload;
  AppendPod(kCheckpointMagic, &payload);
  AppendPod(kCheckpointVersion, &payload);
  AppendPod(id, &payload);
  AppendPod(uint64_t{0}, &payload);  // parent_id
  AppendPod(wal_gen, &payload);
  AppendPod(covered_seq, &payload);
  AppendPod(uint8_t{0}, &payload);  // kind
  AppendPod(static_cast<uint32_t>(rng.size()), &payload);
  for (const RngState& words : rng) {
    for (uint64_t word : words) AppendPod(word, &payload);
  }
  payload.insert(payload.end(), state.begin(), state.end());
  return storage_->AtomicWrite(CheckpointName(id),
                               WrapCrc(std::move(payload)));
}

LoadedCheckpoint CheckpointStore::LoadNewest() {
  LoadedCheckpoint out;
  std::vector<std::string> names;
  if (!storage_->List(&names)) {
    out.error = "storage list failed";
    return out;
  }
  std::map<uint64_t, std::string> by_id;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseCheckpointName(name, &id)) by_id.emplace(id, name);
  }
  if (by_id.empty()) {
    out.ok = true;  // clean slate
    return out;
  }

  // Try tops from newest down; one that does not validate is skipped with a
  // warning (recovery will still fail closed if the log cannot cover the
  // older top's replay gap).
  std::string skipped;
  for (auto top = by_id.rbegin(); top != by_id.rend(); ++top) {
    std::vector<uint8_t> bytes;
    LoadedCheckpoint parsed;
    if (!storage_->Read(top->second, &bytes) ||
        !ParseCheckpointFile(bytes, top->first, &parsed)) {
      if (!skipped.empty()) skipped += ", ";
      skipped += top->second + " (invalid)";
      continue;
    }
    parsed.ok = true;
    parsed.found = true;
    parsed.warning = skipped;
    return parsed;
  }
  out.error = "no valid checkpoint (" + skipped + ")";
  return out;
}

void CheckpointStore::Retain(uint64_t keep_from_id) {
  std::vector<std::string> names;
  if (!storage_->List(&names)) return;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseCheckpointName(name, &id) && id < keep_from_id) {
      storage_->Remove(name);
    }
  }
}

void CheckpointStore::RemoveAll() {
  std::vector<std::string> names;
  if (!storage_->List(&names)) return;
  for (const std::string& name : names) {
    uint64_t id = 0;
    if (ParseCheckpointName(name, &id)) storage_->Remove(name);
  }
}

}  // namespace qf::durable
