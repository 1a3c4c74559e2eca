// qf_bench_gate — statistical perf-regression gate over the bench_results
// trajectory (closes the ROADMAP "statistical regression gate" item).
//
// The throughput benchmark appends one run per invocation to a trajectory
// JSON (per-SHA history; bench/throughput_batch_mt.cc --append). Each run
// carries the udipe-style robust statistics for every sweep cell: the
// median mops across interleaved reps plus the MAD (median absolute
// deviation). This tool walks that history for ONE named hot-path cell
// (trace x config x layout x budget) and fails when the newest run is a
// statistically significant drop against the trailing window:
//
//   z = 0.6745 * (latest_mops - median(window_mops)) / scale
//
// the Iglewicz–Hoaglin modified z-score the benchmark itself uses for
// outlier rejection, with scale = max(MAD of the window medians, median of
// the stored per-run MADs) — so run-to-run spread AND within-run rep noise
// both widen the gate, and noisy runners don't page anyone. Only runs from
// the same machine class as the latest run are comparable (equal cpu_model
// fingerprint AND hardware_threads — absolute mops differ across runner
// classes by far more than any real regression); others are skipped.
//
// Usage, as one command line:
//   qf_bench_gate --json=bench_results/throughput_batch_mt.json
//       --trace=zipf --config=batch --layout=blocked --budget=262144
//
// Exit 0: pass (or insufficient comparable history — the gate needs
// --min-window prior runs before it can judge). Exit 1: significant
// regression. Exit 2: usage / IO / malformed trajectory.
//
// --inject-drop-pct=P appends a SYNTHETIC latest run (the last real cell
// degraded by P%) before gating; CI uses it to prove the gate actually
// trips (`! qf_bench_gate ... --inject-drop-pct=20`).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/export.h"

namespace qf {
namespace {

struct CellRun {
  std::string git_sha;
  std::string cpu_model;  // "" for runs predating the fingerprint field
  uint64_t unix_time = 0;
  int hardware_threads = 0;
  double mops = 0.0;
  double mops_mad = 0.0;
  bool synthetic = false;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mad(const std::vector<double>& v, double med) {
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::fabs(x - med));
  return Median(std::move(dev));
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string path =
      flags.GetString("json", "bench_results/throughput_batch_mt.json");
  const std::string trace = flags.GetString("trace", "zipf");
  const std::string config = flags.GetString("config", "batch");
  const std::string layout = flags.GetString("layout", "blocked");
  const int64_t budget = flags.GetInt("budget", 262144);
  const int window = static_cast<int>(flags.GetInt("window", 8));
  const int min_window = static_cast<int>(flags.GetInt("min-window", 2));
  const double cutoff = flags.GetDouble("z", 3.5);
  const double inject_pct = flags.GetDouble("inject-drop-pct", 0.0);
  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "qf_bench_gate: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  if (window < 1 || min_window < 1 || cutoff <= 0.0) {
    std::fprintf(stderr, "qf_bench_gate: bad --window/--min-window/--z\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "qf_bench_gate: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(text.str(), &doc, &error) ||
      doc.kind != obs::JsonValue::Kind::kArray) {
    std::fprintf(stderr, "qf_bench_gate: %s is not a trajectory array: %s\n",
                 path.c_str(), error.c_str());
    return 2;
  }

  // Collect the named cell from every run that has it, in trajectory order.
  std::vector<CellRun> cells;
  for (const auto& run : doc.array) {
    if (run->kind != obs::JsonValue::Kind::kObject) continue;
    const obs::JsonValue* results = run->Get("results");
    if (results == nullptr ||
        results->kind != obs::JsonValue::Kind::kArray) {
      continue;
    }
    for (const auto& cell : results->array) {
      if (cell->kind != obs::JsonValue::Kind::kObject) continue;
      const obs::JsonValue* t = cell->Get("trace");
      const obs::JsonValue* c = cell->Get("config");
      const obs::JsonValue* l = cell->Get("layout");
      const obs::JsonValue* b = cell->Get("budget_bytes");
      if (t == nullptr || c == nullptr || l == nullptr || b == nullptr ||
          t->string != trace || c->string != config || l->string != layout ||
          static_cast<int64_t>(b->NumberOr(-1)) != budget) {
        continue;
      }
      CellRun cr;
      if (const obs::JsonValue* v = run->Get("git_sha")) cr.git_sha = v->string;
      if (const obs::JsonValue* v = run->Get("unix_time")) {
        cr.unix_time = static_cast<uint64_t>(v->NumberOr(0));
      }
      if (const obs::JsonValue* v = run->Get("cpu_model")) {
        cr.cpu_model = v->string;
      }
      if (const obs::JsonValue* v = run->Get("hardware_threads")) {
        cr.hardware_threads = static_cast<int>(v->NumberOr(0));
      }
      if (const obs::JsonValue* v = cell->Get("mops")) {
        cr.mops = v->NumberOr(0);
      }
      if (const obs::JsonValue* v = cell->Get("mops_mad")) {
        cr.mops_mad = v->NumberOr(0);
      }
      cells.push_back(std::move(cr));
      break;  // one matching cell per run
    }
  }
  if (cells.empty()) {
    std::fprintf(stderr,
                 "qf_bench_gate: no run in %s has cell "
                 "(%s, %s, %s, %lld)\n",
                 path.c_str(), trace.c_str(), config.c_str(), layout.c_str(),
                 static_cast<long long>(budget));
    return 2;
  }

  if (inject_pct > 0.0) {
    CellRun fake = cells.back();
    fake.git_sha = "synthetic";
    fake.mops *= (1.0 - inject_pct / 100.0);
    fake.synthetic = true;
    cells.push_back(fake);
  }

  const CellRun latest = cells.back();
  cells.pop_back();
  // Only same-machine-class history is comparable (CPU model + thread
  // count); take the trailing window. Absolute mops across runner classes
  // differ by tens of percent, which would both trip and mask real
  // regressions.
  std::vector<CellRun> history;
  for (const CellRun& cr : cells) {
    if (cr.hardware_threads == latest.hardware_threads &&
        cr.cpu_model == latest.cpu_model) {
      history.push_back(cr);
    }
  }
  if (static_cast<int>(history.size()) > window) {
    history.erase(history.begin(),
                  history.end() - static_cast<ptrdiff_t>(window));
  }
  std::printf(
      "qf_bench_gate: cell (%s, %s, %s, %lld) latest %s%.3f Mops "
      "(sha %s, %d hw threads), %zu comparable prior run(s)\n",
      trace.c_str(), config.c_str(), layout.c_str(),
      static_cast<long long>(budget), latest.synthetic ? "[synthetic] " : "",
      latest.mops, latest.git_sha.c_str(), latest.hardware_threads,
      history.size());
  if (static_cast<int>(history.size()) < min_window) {
    std::printf(
        "qf_bench_gate: PASS (insufficient history: %zu < %d comparable "
        "runs; gate becomes active once the trajectory grows)\n",
        history.size(), min_window);
    return 0;
  }

  std::vector<double> mops, mads;
  for (const CellRun& cr : history) {
    mops.push_back(cr.mops);
    mads.push_back(cr.mops_mad);
  }
  mads.push_back(latest.mops_mad);
  const double med = Median(mops);
  // Scale: run-to-run spread of window medians OR typical within-run rep
  // noise (stored MADs), whichever is larger — a single-run window has zero
  // spread, and a super-quiet runner has near-zero MADs; the max keeps
  // either from hair-triggering the gate.
  double scale = std::max(Mad(mops, med), Median(mads));
  if (scale <= 0.0) scale = 0.01 * (med > 0.0 ? med : 1.0);
  const double z = 0.6745 * (latest.mops - med) / scale;
  std::printf(
      "qf_bench_gate: window median %.3f Mops, scale %.3f (window MAD "
      "%.3f, median stored MAD %.3f), modified z = %+.2f (cutoff %.2f)\n",
      med, scale, Mad(mops, med), Median(mads), z, cutoff);
  if (z <= -cutoff) {
    std::fprintf(stderr,
                 "qf_bench_gate: FAIL — %s dropped %.1f%% vs the trailing "
                 "window (%.3f -> %.3f Mops, z = %+.2f <= -%.2f)\n",
                 config.c_str(), 100.0 * (med - latest.mops) / med, med,
                 latest.mops, z, cutoff);
    return 1;
  }
  std::printf("qf_bench_gate: PASS\n");
  return 0;
}

}  // namespace
}  // namespace qf

int main(int argc, char** argv) { return qf::Main(argc, argv); }
