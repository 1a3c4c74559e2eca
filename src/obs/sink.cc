#include "obs/sink.h"

#include <chrono>
#include <cstdio>

#include "obs/export.h"

namespace qf::obs {
namespace {

bool AppendToFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return (std::fclose(f) == 0) && ok;
}

bool AtomicRewrite(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

bool MetricsSink::WriteOnce() {
  const MetricsSnapshot snapshot = snapshot_();
  bool ok = true;
  if (!options_.jsonl_path.empty()) {
    ok = AppendToFile(options_.jsonl_path, RenderJsonLine(snapshot)) && ok;
  }
  if (!options_.prom_path.empty()) {
    ok = AtomicRewrite(options_.prom_path, RenderPrometheus(snapshot)) && ok;
  }
  return ok;
}

void MetricsSink::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSink::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  WriteOnce();  // final snapshot so short runs always leave one behind
}

void MetricsSink::Loop() {
  // Sleep in small slices so Stop() never waits a full interval.
  const auto slice = std::chrono::milliseconds(20);
  auto next = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(options_.interval_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= next) {
      WriteOnce();
      next += std::chrono::milliseconds(options_.interval_ms);
    }
    std::this_thread::sleep_for(slice);
  }
}

}  // namespace qf::obs
