#include "harness.h"

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

namespace qfbench {

void UseFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

uint64_t SleepBudgetNs(uint64_t t_ns) {
  // Sleep while far out and yield for the last ~20us: a wake-up runs a few
  // microseconds late, while spinning the whole gap would take a core from
  // the system under test on a machine with fewer cores than busy threads.
  constexpr uint64_t kSpinNs = 20'000;
  const uint64_t now = MonotonicNanos();
  return t_ns > now + 2 * kSpinNs ? t_ns - now - kSpinNs : 0;
}

void SleepUntil(uint64_t t_ns) {
  const uint64_t sleep_ns = SleepBudgetNs(t_ns);
  if (sleep_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  }
  while (MonotonicNanos() < t_ns) sched_yield();
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  size_t rank = static_cast<size_t>(q * static_cast<double>(s.size()));
  if (rank >= s.size()) rank = s.size() - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<long>(rank), s.end());
  return s[rank];
}

double Samples::Sum() const {
  double t = 0.0;
  for (double v : v_) t += v;
  return t;
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_rss = 0;
  statm >> pages_total >> pages_rss;
  return static_cast<double>(pages_rss) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- watchdog

Watchdog& Watchdog::Get() {
  static Watchdog w;
  return w;
}

void Watchdog::Start(const std::string& workload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    workload_ = workload;
  }
  thread_ = std::thread([this] { Run(); });
}

void Watchdog::Phase(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = name;
  deadline_ns_ = MonotonicNanos() + static_cast<uint64_t>(seconds * 1e9);
}

void Watchdog::AddScratchDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.push_back(dir);
}

void Watchdog::RemoveScratchDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.erase(std::remove(dirs_.begin(), dirs_.end(), dir), dirs_.end());
}

void Watchdog::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Watchdog::Run() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(mu_);
    if (deadline_ns_ == 0 || MonotonicNanos() < deadline_ns_) continue;
    std::fprintf(stderr,
                 "qfbench: workload %s: check 'deadline' failed: phase '%s' "
                 "did not finish in time (system under test wedged?)\n",
                 workload_.c_str(), phase_.c_str());
    std::error_code ec;
    for (const std::string& d : dirs_) std::filesystem::remove_all(d, ec);
    std::fflush(nullptr);
    _exit(3);
  }
}

ScratchDir::ScratchDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  path_ = ".bench_out/tmp/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) Fail("scratch dir", "cannot create " + path_ + ": " + ec.message());
  Watchdog::Get().AddScratchDir(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  Watchdog::Get().RemoveScratchDir(path_);
}

// ------------------------------------------------------------------ tracer

namespace {
struct LockedBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<Tracer::Span> spans;
};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<LockedBuffer>> g_buffers;
std::atomic<uint32_t> g_next_tid{1};

LockedBuffer* LocalBuffer() {
  thread_local LockedBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto fresh = std::make_unique<LockedBuffer>();
    fresh->tid = g_next_tid.fetch_add(1);
    buf = fresh.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(fresh));
  }
  return buf;
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer t;
  return t;
}

void Tracer::Record(const char* name, const char* parent, uint64_t frame,
                    uint64_t start_ns, uint64_t end_ns) {
  LockedBuffer* b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  b->spans.push_back(Span{name, parent, frame, start_ns, end_ns, b->tid});
}

std::vector<Tracer::Span> Tracer::Collect() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    std::lock_guard<std::mutex> inner(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::vector<Span>& spans,
                             const std::string& path, size_t max_events) {
  std::ofstream f(path);
  if (!f) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  f << "{\"traceEvents\":[\n";
  const size_t n = std::min(spans.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%llu,"
                  "\"parent\":\"%s\"}}%s\n",
                  s.name, s.tid, (s.start_ns - t0) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.frame),
                  s.parent != nullptr ? s.parent : "", i + 1 < n ? "," : "");
    f << line;
  }
  f << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(f);
}

std::string Tracer::SelfTimeTable(const std::vector<Span>& spans) {
  // Children of (parent name, frame), as intervals.
  std::map<std::pair<std::string, uint64_t>,
           std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != nullptr) {
      children[{s.parent, s.frame}].push_back({s.start_ns, s.end_ns});
    }
  }
  struct Row {
    uint64_t count = 0;
    double total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans) {
    Row& r = rows[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0.0;
    auto it = children.find({s.name, s.frame});
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_b = 0, cur_e = 0;
      bool open = false;
      const auto flush = [&] {
        if (!open) return;
        const uint64_t b = std::max(cur_b, s.start_ns);
        const uint64_t e = std::min(cur_e, s.end_ns);
        if (e > b) covered += static_cast<double>(e - b);
      };
      for (const auto& [b, e] : iv) {
        if (open && b <= cur_e) {
          cur_e = std::max(cur_e, e);
        } else {
          flush();
          cur_b = b;
          cur_e = e;
          open = true;
        }
      }
      flush();
    }
    ++r.count;
    r.total_ns += dur;
    r.self_ns += dur - covered;
  }
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %14s %14s %12s\n", "span",
                "count", "total_ms", "self_ms", "self_us/span");
  os << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %14.3f %14.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ns / 1e6, r.self_ns / 1e6,
                  r.count ? r.self_ns / 1e3 / static_cast<double>(r.count)
                          : 0.0);
    os << line;
  }
  return os.str();
}

// ---------------------------------------------------------------- metrics

uint64_t CounterValue(const qf::obs::MetricsSnapshot& s,
                      const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t GaugeValue(const qf::obs::MetricsSnapshot& s,
                   const std::string& name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

double HistogramDeltaQuantile(const qf::obs::MetricsSnapshot& before,
                              const qf::obs::MetricsSnapshot& after,
                              const std::string& name, double q) {
  const qf::obs::HistogramData* b = nullptr;
  const qf::obs::HistogramData* a = nullptr;
  for (const auto& h : before.histograms) {
    if (h.name == name) b = &h.data;
  }
  for (const auto& h : after.histograms) {
    if (h.name == name) a = &h.data;
  }
  if (a == nullptr) return 0.0;
  qf::obs::HistogramData delta;
  uint64_t count = 0;
  for (size_t i = 0; i < qf::obs::HistogramData::kNumBuckets; ++i) {
    const uint64_t prev = b != nullptr ? b->bucket(i) : 0;
    const uint64_t n = a->bucket(i) - prev;
    delta.AddBucket(i, n);
    count += n;
  }
  if (count == 0) return 0.0;
  delta.AddTotals(count, 0, a->max());
  return static_cast<double>(delta.Quantile(q));
}

}  // namespace qfbench
