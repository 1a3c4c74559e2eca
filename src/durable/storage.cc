#include "durable/storage.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace qf::durable {

namespace {

// Full write with EINTR retry; partial writes keep going.
bool WriteAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

constexpr size_t kHexDigits = 16;

}  // namespace

std::string HexName(const char* prefix, uint64_t value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016" PRIx64 "%s", prefix, value,
                suffix);
  return buf;
}

bool ParseHexName(const std::string& name, const char* prefix,
                  const char* suffix, uint64_t* value) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() != prefix_len + kHexDigits + suffix_len ||
      name.compare(0, prefix_len, prefix) != 0 ||
      name.compare(prefix_len + kHexDigits, suffix_len, suffix) != 0) {
    return false;
  }
  uint64_t out = 0;
  for (size_t i = 0; i < kHexDigits; ++i) {
    const char c = name[prefix_len + i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    out = (out << 4) | digit;
  }
  *value = out;
  return true;
}

FsStorage::FsStorage(std::string dir) : dir_(std::move(dir)) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    error_ = "mkdir " + dir_ + ": " + std::strerror(errno);
    return;
  }
  struct stat st;
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    error_ = dir_ + " is not a directory";
    return;
  }
  ok_ = true;
}

FsStorage::~FsStorage() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fd] : append_fds_) ::close(fd);
}

std::string FsStorage::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

bool FsStorage::List(std::vector<std::string>* names) {
  names->clear();
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return false;
  while (struct dirent* e = ::readdir(d)) {
    std::string n = e->d_name;
    if (n == "." || n == "..") continue;
    // Leftover tmp files from an AtomicWrite that crashed pre-rename are
    // invisible garbage; skip them so recovery never reads a partial blob.
    if (n.size() > 4 && n.compare(n.size() - 4, 4, ".tmp") == 0) continue;
    names->push_back(std::move(n));
  }
  ::closedir(d);
  std::sort(names->begin(), names->end());
  return true;
}

bool FsStorage::Read(const std::string& name, std::vector<uint8_t>* out) {
  int fd = ::open(PathFor(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

int FsStorage::OpenAppendLocked(const std::string& name) {
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) return it->second;
  int fd = ::open(PathFor(name).c_str(),
                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return -1;
  append_fds_.emplace(name, fd);
  return fd;
}

bool FsStorage::Append(const std::string& name,
                       std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  int fd = OpenAppendLocked(name);
  if (fd < 0) return false;
  if (torn_armed_ && appended_bytes_ + bytes.size() >= torn_after_bytes_) {
    // Simulate power loss mid-record: persist a strict prefix of this
    // write, flush it, and die without returning. The length prefix of
    // the torn frame promises more bytes than exist, which is exactly
    // the incomplete-trailing-frame shape recovery must repair.
    size_t keep = static_cast<size_t>(
        static_cast<double>(bytes.size()) * torn_keep_fraction_);
    if (keep >= bytes.size()) keep = bytes.size() - 1;
    WriteAll(fd, bytes.data(), keep);
    ::fsync(fd);
    ::kill(::getpid(), SIGKILL);
    ::pause();  // unreachable
  }
  if (!WriteAll(fd, bytes.data(), bytes.size())) return false;
  appended_bytes_ += bytes.size();
  return true;
}

bool FsStorage::AtomicWrite(const std::string& name,
                            std::span<const uint8_t> bytes) {
  std::string tmp = PathFor(name) + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = WriteAll(fd, bytes.data(), bytes.size()) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), PathFor(name).c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the directory so the rename itself is durable.
  int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  // An old append fd (pre-rename inode) would silently write to the
  // unlinked file; drop it.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) {
    ::close(it->second);
    append_fds_.erase(it);
  }
  return true;
}

bool FsStorage::Truncate(const std::string& name, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) {
    ::close(it->second);
    append_fds_.erase(it);
  }
  return ::truncate(PathFor(name).c_str(),
                    static_cast<off_t>(size)) == 0;
}

bool FsStorage::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) {
    ::close(it->second);
    append_fds_.erase(it);
  }
  return ::unlink(PathFor(name).c_str()) == 0;
}

bool FsStorage::Sync(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  int fd = OpenAppendLocked(name);
  if (fd < 0) return false;
  return ::fsync(fd) == 0;
}

void FsStorage::ArmTornWrite(uint64_t after_bytes, double keep_fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  torn_armed_ = true;
  torn_after_bytes_ = after_bytes;
  torn_keep_fraction_ = keep_fraction;
}

bool MemStorage::List(std::vector<std::string>* names) {
  std::lock_guard<std::mutex> lock(mu_);
  names->clear();
  for (const auto& [name, bytes] : blobs_) names->push_back(name);
  return true;  // std::map iterates sorted
}

bool MemStorage::Read(const std::string& name, std::vector<uint8_t>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(name);
  if (it == blobs_.end()) return false;
  *out = it->second;
  return true;
}

bool MemStorage::Append(const std::string& name,
                        std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& blob = blobs_[name];
  blob.insert(blob.end(), bytes.begin(), bytes.end());
  return true;
}

bool MemStorage::AtomicWrite(const std::string& name,
                             std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  blobs_[name].assign(bytes.begin(), bytes.end());
  return true;
}

bool MemStorage::Truncate(const std::string& name, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(name);
  if (it == blobs_.end() || it->second.size() < size) return false;
  it->second.resize(size);
  return true;
}

bool MemStorage::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_.erase(name) > 0;
}

}  // namespace qf::durable
