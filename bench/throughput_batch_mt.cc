// Batched and multi-threaded insert throughput (extension bench).
//
// Compares, on the Zipf and Cloud traces:
//   * scalar    — one QuantileFilter, Insert() per item;
//   * batch     — the same filter driven through InsertBatch's pre-hash +
//                 prefetch window (identical output, see
//                 tests/insert_batch_test.cc);
//   * pipeline-N — N-shard ShardedQuantileFilter behind the multi-producer
//                 ingest pipeline (parallel/pipeline.h): block-hashed
//                 scatter, adaptive batching, futex parking. --pin adds
//                 core pinning + first-touch placement.
//
// Every configuration runs under both vague-part layouts by default
// (--layout=classic|blocked|both restricts the sweep); rows are tagged with
// the layout in the table and the JSON.
//
// Measurement protocol (udipe-style, see bench_util.h): each cell runs
// QF_BENCH_REPS repetitions (default 5) REPEATED-INTERLEAVED — rep r runs
// every config once before rep r+1 starts — then reports the
// outlier-filtered median and MAD dispersion. speedup_vs_scalar is tagged
// meaningful only when the box has at least as many hardware threads as the
// config requests; a 1-core machine "scaling" to pipeline-8 is noise and
// the JSON now says so instead of implying otherwise.
//
// JSON goes to bench_results/throughput_batch_mt.json (override with
// QF_BENCH_JSON). By default the file is rewritten with this run; --append
// appends the run to the existing trajectory array so CI accumulates a
// per-SHA perf history. --check-scaling exits 1 if any meaningful
// pipeline-N median (N ≥ 2) falls below the same-cell batch median — the
// multi-core scaling gate from ROADMAP item 1.
//
// Observability flags (all optional; see DESIGN.md §10):
//   --metrics-json=PATH        append one metrics snapshot per second as a
//                              JSON line (tail with tools/qf_top --file=PATH)
//   --metrics-prom=PATH        atomically rewrite Prometheus text exposition
//   --metrics-interval-ms=N    sink poll interval (default 1000)
//   --trace-json=PATH          record pipeline stage timing into the trace
//                              ring and dump chrome://tracing JSON at exit
// With QF_METRICS=OFF the sink still runs but sees an empty registry.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/simd.h"
#include "core/sharded_filter.h"
#include "obs/sink.h"
#include "obs/trace_ring.h"
#include "parallel/pipeline.h"
#include "parallel/placement.h"

#include <thread>

namespace qf::bench {
namespace {

struct Measurement {
  std::string trace;
  size_t budget = 0;
  std::string config;
  VagueLayout layout = VagueLayout::kClassic;
  /// Outlier-filtered median over the interleaved reps.
  double mops = 0.0;
  double mops_mad = 0.0;
  int reps = 0;
  int outliers_rejected = 0;
  double speedup = 1.0;
  /// False when the box cannot actually run this config's threads in
  /// parallel (hardware_threads < shards): the speedup is then an artifact
  /// of time-slicing, not a scaling result.
  bool speedup_meaningful = true;
  /// Worker threads the config asks for (0 for scalar/batch).
  int shards = 0;
  uint64_t reports = 0;
};

/// Best-effort build identity for the JSON trail: the QF_GIT_SHA env var
/// wins (set by CI at run time), then the compile-time stamp from CMake,
/// then "unknown".
const char* GitSha() {
  if (const char* env = std::getenv("QF_GIT_SHA"); env && *env) return env;
#ifdef QF_GIT_SHA
  return QF_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Machine fingerprint for the trajectory: qf_bench_gate only compares runs
/// from the same CPU model + thread count, so numbers from a different
/// runner class never trip (or mask) a regression. Best-effort: "unknown"
/// where /proc/cpuinfo has no "model name" line (non-x86, sandboxes).
std::string CpuModel() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "rb")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) break;
      ++colon;
      while (*colon == ' ' || *colon == '\t') ++colon;
      model.assign(colon);
      while (!model.empty() && (model.back() == '\n' || model.back() == '"' ||
                                model.back() == '\\')) {
        model.pop_back();
      }
      break;
    }
    std::fclose(f);
  }
  return model;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

double Mops(size_t items, double seconds) {
  return seconds <= 0.0 ? 0.0
                        : static_cast<double>(items) / seconds / 1e6;
}

struct Sample {
  double mops = 0.0;
  uint64_t reports = 0;
};

Sample RunScalar(const Trace& trace, size_t budget,
                 const Criteria& criteria, VagueLayout layout) {
  DefaultQuantileFilter filter = MakeQf(budget, criteria, layout);
  uint64_t reports = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const Item& item : trace) {
    reports += filter.Insert(item.key, item.value);
  }
  const auto stop = std::chrono::steady_clock::now();
  return {Mops(trace.size(), Seconds(start, stop)), reports};
}

Sample RunBatch(const Trace& trace, size_t budget, const Criteria& criteria,
                VagueLayout layout) {
  DefaultQuantileFilter filter = MakeQf(budget, criteria, layout);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t reports =
      filter.InsertBatch(std::span<const Item>(trace), criteria);
  const auto stop = std::chrono::steady_clock::now();
  return {Mops(trace.size(), Seconds(start, stop)), reports};
}

Sample RunPipeline(const Trace& trace, size_t budget,
                   const Criteria& criteria, VagueLayout layout, int shards,
                   const PlacementOptions& placement) {
  DefaultQuantileFilter::Options options;
  options.memory_bytes = budget;
  options.vague_layout = layout;
  ShardedQuantileFilter<CountSketch<int16_t>> filter(options, criteria,
                                                     shards);
  IngestPipeline<CountSketch<int16_t>>::Options popts;
  popts.placement = placement;
  IngestPipeline<CountSketch<int16_t>> pipeline(filter, popts);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t reports = pipeline.RunTrace(std::span<const Item>(trace));
  const auto stop = std::chrono::steady_clock::now();
  return {Mops(trace.size(), Seconds(start, stop)), reports};
}

void Print(const Measurement& m) {
  std::printf(
      "%-12s %-8s mem=%9zuB  %8.2f MOPS (±%.2f, %d/%d reps)  %5.2fx%s  "
      "reports=%llu\n",
      m.config.c_str(), VagueLayoutName(m.layout), m.budget, m.mops,
      m.mops_mad, m.reps - m.outliers_rejected, m.reps, m.speedup,
      m.speedup_meaningful ? "" : " (not meaningful: too few cores)",
      static_cast<unsigned long long>(m.reports));
}

void Sweep(const char* name, const Trace& trace, const Criteria& criteria,
           const std::vector<VagueLayout>& layouts, int reps,
           const PlacementOptions& placement,
           std::vector<Measurement>* all) {
  PrintHeader(name, trace, criteria);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> shard_counts{1, 2, 4, 8};
  for (size_t budget : {size_t{256} << 10, size_t{16} << 20}) {
    // Warm-up pass (page in the trace, stabilize clocks).
    RunScalar(trace, budget, criteria, layouts.front());

    for (VagueLayout layout : layouts) {
      // Interleaved reps: rep r runs every config once, so slow drift
      // (thermal throttling, a noisy neighbour) biases all configs alike.
      const size_t num_configs = 2 + shard_counts.size();
      std::vector<std::vector<double>> samples(num_configs);
      std::vector<uint64_t> reports(num_configs, 0);
      for (int rep = 0; rep < reps; ++rep) {
        size_t ci = 0;
        Sample s = RunScalar(trace, budget, criteria, layout);
        samples[ci].push_back(s.mops);
        reports[ci++] = s.reports;
        s = RunBatch(trace, budget, criteria, layout);
        samples[ci].push_back(s.mops);
        reports[ci++] = s.reports;
        for (const int shards : shard_counts) {
          s = RunPipeline(trace, budget, criteria, layout, shards,
                          placement);
          samples[ci].push_back(s.mops);
          reports[ci++] = s.reports;
        }
      }

      std::vector<Measurement> rows;
      for (size_t ci = 0; ci < num_configs; ++ci) {
        Measurement m;
        m.trace = name;
        m.budget = budget;
        m.layout = layout;
        if (ci == 0) {
          m.config = "scalar";
        } else if (ci == 1) {
          m.config = "batch";
        } else {
          m.shards = shard_counts[ci - 2];
          m.config = "pipeline-" + std::to_string(m.shards);
          m.speedup_meaningful = hw >= m.shards;
        }
        const RobustStats rs = Robust(samples[ci]);
        m.mops = rs.median;
        m.mops_mad = rs.mad;
        m.reps = rs.samples_total;
        m.outliers_rejected = rs.outliers_rejected;
        m.reports = reports[ci];
        rows.push_back(m);
      }
      const double scalar_mops = rows[0].mops;
      for (Measurement& m : rows) {
        m.speedup = scalar_mops > 0 ? m.mops / scalar_mops : 0.0;
        Print(m);
        all->push_back(m);
      }
      if (rows[1].reports != rows[0].reports) {
        std::printf("!! batch/scalar report mismatch (%llu vs %llu)\n",
                    static_cast<unsigned long long>(rows[1].reports),
                    static_cast<unsigned long long>(rows[0].reports));
      }
      std::printf("\n");
    }
  }
}

std::string RunJson(const std::vector<Measurement>& all, size_t items,
                    int reps) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  {\n    \"items\": %zu,\n    \"reps\": %d,\n"
                "    \"simd\": \"%s\",\n    \"hardware_threads\": %u,\n"
                "    \"cpu_model\": \"%s\",\n"
                "    \"git_sha\": \"%s\",\n    \"unix_time\": %lld,\n"
                "    \"results\": [\n",
                items, reps, QF_SIMD_NAME,
                std::thread::hardware_concurrency(), CpuModel().c_str(),
                GitSha(), static_cast<long long>(std::time(nullptr)));
  out += buf;
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"trace\": \"%s\", \"budget_bytes\": %zu, "
        "\"config\": \"%s\", \"layout\": \"%s\", \"mops\": %.3f, "
        "\"mops_mad\": %.3f, \"reps\": %d, \"outliers_rejected\": %d, "
        "\"speedup_vs_scalar\": %.3f, \"speedup_meaningful\": %s, "
        "\"reports\": %llu}%s\n",
        m.trace.c_str(), m.budget, m.config.c_str(),
        VagueLayoutName(m.layout), m.mops, m.mops_mad, m.reps,
        m.outliers_rejected, m.speedup,
        m.speedup_meaningful ? "true" : "false",
        static_cast<unsigned long long>(m.reports),
        i + 1 == all.size() ? "" : ",");
    out += buf;
  }
  out += "    ]\n  }";
  return out;
}

/// The JSON file is a trajectory: an array of run objects, one per
/// invocation, each tagged with git SHA / core count / timestamp. With
/// `append` the run joins the existing array (CI accumulates the perf
/// history per commit); without it the file is rewritten with just this
/// run.
void WriteJson(const std::vector<Measurement>& all, size_t items, int reps,
               bool append) {
  const char* path = std::getenv("QF_BENCH_JSON");
  if (path == nullptr) path = "bench_results/throughput_batch_mt.json";
  const std::string run = RunJson(all, items, reps);

  std::string existing;
  if (append) {
    if (std::FILE* f = std::fopen(path, "rb")) {
      char buf[1 << 16];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        existing.append(buf, n);
      }
      std::fclose(f);
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("(json output skipped: cannot open %s)\n", path);
    return;
  }
  // Splice into an existing `[ ... ]` trajectory; anything else (legacy
  // single-object file, corruption) starts a fresh array.
  const size_t close = existing.rfind(']');
  if (append && !existing.empty() && existing[0] == '[' &&
      close != std::string::npos) {
    existing.resize(close);
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
    std::fprintf(f, "%s,\n%s\n]\n", existing.c_str(), run.c_str());
  } else {
    std::fprintf(f, "[\n%s\n]\n", run.c_str());
  }
  std::fclose(f);
  std::printf("json %s to %s\n", append ? "appended" : "written", path);
}

/// The multi-core scaling gate: every MEANINGFUL pipeline-N median (N ≥ 2,
/// i.e. the box really has N threads) must beat the same-cell batch
/// median. Returns the number of violations; skipped cells are reported so
/// a 1-core box is loud about having gated nothing.
int CheckScaling(const std::vector<Measurement>& all) {
  int violations = 0;
  int checked = 0;
  int skipped = 0;
  for (const Measurement& p : all) {
    if (p.shards < 2) continue;
    if (!p.speedup_meaningful) {
      ++skipped;
      continue;
    }
    for (const Measurement& b : all) {
      if (b.config != "batch" || b.trace != p.trace ||
          b.budget != p.budget || b.layout != p.layout) {
        continue;
      }
      ++checked;
      if (p.mops < b.mops) {
        ++violations;
        std::fprintf(stderr,
                     "SCALING VIOLATION: %s/%zu/%s %s %.2f MOPS < batch "
                     "%.2f MOPS\n",
                     p.trace.c_str(), p.budget, VagueLayoutName(p.layout),
                     p.config.c_str(), p.mops, b.mops);
      }
    }
  }
  std::printf("scaling gate: %d cells checked, %d skipped (too few cores), "
              "%d violations\n",
              checked, skipped, violations);
  return violations;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string layout_flag = flags.GetString("layout", "both");
  std::vector<VagueLayout> layouts;
  if (layout_flag == "classic") {
    layouts = {VagueLayout::kClassic};
  } else if (layout_flag == "blocked") {
    layouts = {VagueLayout::kBlocked};
  } else if (layout_flag == "both") {
    layouts = {VagueLayout::kClassic, VagueLayout::kBlocked};
  } else {
    std::fprintf(stderr, "unknown --layout=%s (classic | blocked | both)\n",
                 layout_flag.c_str());
    return 2;
  }
  const bool append = flags.Has("append");
  const bool check_scaling = flags.Has("check-scaling");
  PlacementOptions placement;
  placement.pin_threads = flags.Has("pin");
  placement.first_touch_arenas = placement.pin_threads;
  placement.core_offset =
      static_cast<int>(flags.GetInt("core-offset", 0));
  const std::string metrics_json = flags.GetString("metrics-json", "");
  const std::string metrics_prom = flags.GetString("metrics-prom", "");
  const std::string trace_json = flags.GetString("trace-json", "");
  const int interval_ms =
      static_cast<int>(flags.GetInt("metrics-interval-ms", 1000));
  const auto unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    for (const std::string& f : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    }
    return 2;
  }

  obs::MetricsSink sink(
      [] { return obs::MetricsRegistry::Global().Snapshot(); },
      {metrics_json, metrics_prom, interval_ms});
  if (!metrics_json.empty() || !metrics_prom.empty()) sink.Start();
  if (!trace_json.empty()) obs::TraceRing::Global().Enable();

  const size_t items = ItemsFromEnv(2'000'000);
  const int reps = RepsFromEnv(5);
  std::printf("protocol: %d interleaved reps per cell, median + MAD, "
              "%u hardware threads%s\n\n",
              reps, std::thread::hardware_concurrency(),
              placement.pin_threads ? ", pinned + first-touch" : "");
  std::vector<Measurement> all;

  const Trace zipf = MakeZipfTrace(items, items / 8);
  Sweep("zipf", zipf, InternetCriteria(300.0), layouts, reps, placement,
        &all);

  const Trace cloud = MakeCloudTrace(items);
  Sweep("cloud", cloud, CloudCriteria(20000.0), layouts, reps, placement,
        &all);

  WriteJson(all, items, reps, append);

  sink.Stop();  // writes one final snapshot covering the whole run
  if (!trace_json.empty()) {
    obs::TraceRing& ring = obs::TraceRing::Global();
    ring.Disable();  // pipelines are stopped: dump at quiescence
    if (ring.DumpChromeJson(trace_json)) {
      std::printf("trace written to %s (%zu events kept of %llu emitted)\n",
                  trace_json.c_str(), ring.CountEntries(),
                  static_cast<unsigned long long>(ring.TotalEmitted()));
    } else {
      std::printf("(trace output skipped: cannot write %s)\n",
                  trace_json.c_str());
    }
  }
  if (check_scaling && CheckScaling(all) > 0) return 1;
  return 0;
}

}  // namespace
}  // namespace qf::bench

int main(int argc, char** argv) { return qf::bench::Main(argc, argv); }
