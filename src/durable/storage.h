// Storage abstraction for the durability layer (DESIGN.md §14).
//
// The write-ahead log and the checkpoint store never touch the filesystem
// directly; they speak to this flat-namespace blob interface instead. Two
// implementations:
//
//   * FsStorage  — one directory of files, POSIX I/O. Append() keeps the
//     target open O_APPEND; AtomicWrite() is the classic tmp + rename +
//     fsync(dir) dance, so a checkpoint file either exists with its full
//     contents or not at all. Sync() fsyncs a file (group commit rides it).
//   * MemStorage — a map of byte vectors. The differential-fuzz
//     durable-replay track and the corruption test suite run against it:
//     tests can truncate, bit-flip and duplicate "files" with plain vector
//     surgery, no tmpdirs, no fsync latency.
//
// FsStorage additionally carries the crash harness's torn-write shim
// (ArmTornWrite): once the cumulative appended byte count crosses a
// threshold, the next Append writes only a prefix of its buffer and
// SIGKILLs the process — the on-disk image is then exactly what a power
// cut mid-write leaves behind, which is the case recovery's torn-tail
// truncation exists for. The shim only fires on Append (log records);
// checkpoints go through AtomicWrite and stay atomic, as on a real disk
// with rename semantics.
//
// Thread safety: all methods are safe to call concurrently (an internal
// mutex guards the fd cache / the map). The serving layer serializes log
// appends under its own WAL mutex anyway; the mutex here exists so a
// checkpoint write on one thread can overlap appends on another.

#ifndef QUANTILEFILTER_DURABLE_STORAGE_H_
#define QUANTILEFILTER_DURABLE_STORAGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace qf::durable {

/// `prefix` + `value` as 16 lowercase hex digits + `suffix`: how log
/// segments and checkpoints are named (zero-padded, so lexicographic order
/// is numeric order).
std::string HexName(const char* prefix, uint64_t value, const char* suffix);
/// Inverse of HexName; false unless `name` has exactly that shape.
bool ParseHexName(const std::string& name, const char* prefix,
                  const char* suffix, uint64_t* value);

class Storage {
 public:
  virtual ~Storage() = default;

  /// All blob names, lexicographically sorted (segment/checkpoint names are
  /// zero-padded hex, so lexicographic == numeric order).
  virtual bool List(std::vector<std::string>* names) = 0;
  virtual bool Read(const std::string& name, std::vector<uint8_t>* out) = 0;
  /// Appends to `name`, creating it if absent.
  virtual bool Append(const std::string& name,
                      std::span<const uint8_t> bytes) = 0;
  /// Replaces `name` with `bytes` all-or-nothing (tmp + rename on disk).
  virtual bool AtomicWrite(const std::string& name,
                           std::span<const uint8_t> bytes) = 0;
  /// Shrinks `name` to `size` bytes (recovery's torn-tail repair).
  virtual bool Truncate(const std::string& name, uint64_t size) = 0;
  virtual bool Remove(const std::string& name) = 0;
  /// Durability barrier for `name` (fsync; no-op in memory).
  virtual bool Sync(const std::string& name) = 0;
};

/// POSIX directory-backed storage. The directory is created if missing.
class FsStorage : public Storage {
 public:
  explicit FsStorage(std::string dir);
  ~FsStorage() override;

  FsStorage(const FsStorage&) = delete;
  FsStorage& operator=(const FsStorage&) = delete;

  /// False if the directory could not be created/opened; error() says why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  bool List(std::vector<std::string>* names) override;
  bool Read(const std::string& name, std::vector<uint8_t>* out) override;
  bool Append(const std::string& name,
              std::span<const uint8_t> bytes) override;
  bool AtomicWrite(const std::string& name,
                   std::span<const uint8_t> bytes) override;
  bool Truncate(const std::string& name, uint64_t size) override;
  bool Remove(const std::string& name) override;
  bool Sync(const std::string& name) override;

  /// Crash-injection shim: once the cumulative Append() byte count reaches
  /// `after_bytes`, the triggering Append writes only `keep_fraction` of
  /// its buffer (rounded down, at least 1 byte short of complete) and
  /// raises SIGKILL on the calling process. Call before serving starts.
  void ArmTornWrite(uint64_t after_bytes, double keep_fraction = 0.5);

 private:
  int OpenAppendLocked(const std::string& name);
  std::string PathFor(const std::string& name) const;

  std::string dir_;
  bool ok_ = false;
  std::string error_;
  std::mutex mu_;
  std::unordered_map<std::string, int> append_fds_;

  bool torn_armed_ = false;
  uint64_t torn_after_bytes_ = 0;
  double torn_keep_fraction_ = 0.5;
  uint64_t appended_bytes_ = 0;
};

/// In-memory storage for tests and the durable-replay fuzz track. The
/// underlying map is exposed so corruption tests can flip bits, truncate
/// tails and duplicate segments directly.
class MemStorage : public Storage {
 public:
  bool List(std::vector<std::string>* names) override;
  bool Read(const std::string& name, std::vector<uint8_t>* out) override;
  bool Append(const std::string& name,
              std::span<const uint8_t> bytes) override;
  bool AtomicWrite(const std::string& name,
                   std::span<const uint8_t> bytes) override;
  bool Truncate(const std::string& name, uint64_t size) override;
  bool Remove(const std::string& name) override;
  bool Sync(const std::string& /*name*/) override { return true; }

  /// Direct blob access for corruption tests (single-threaded use only).
  std::map<std::string, std::vector<uint8_t>>& blobs() { return blobs_; }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> blobs_;
};

}  // namespace qf::durable

#endif  // QUANTILEFILTER_DURABLE_STORAGE_H_
