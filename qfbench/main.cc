// qfbench: the repository's one benchmark. Boots a workload's system under
// test in-process, drives it from a seeded generator, checks its answers,
// and prints every metric by name and unit; the last stdout line is the
// result object. See README.md in this directory for the metric → layer →
// workload table.
//
//   qfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--git-sha <sha>]
//
// Exit codes: 0 with a result line; 1 when a correctness check fails (the
// workload and check are named on stderr); 2 on bad arguments; 3 when the
// watchdog finds a wedged phase.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "reps.h"
#include "harness.h"
#include "probes.h"
#include "workloads.h"

namespace qfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// Threads busy during the closed loop, the busier phase: system under
/// test plus load generator. More than the cores means the run is
/// time-sliced.
int BusyThreads(const WorkloadSpec& w) {
  const int clients = w.ingest_conns + 1 + (w.closed_loop_queries ? 1 : 0);
  switch (w.kind) {
    case SutKind::kEmbedded:  // workers; producer, alert consumer
      return kShards + 2;
    case SutKind::kServer:  // reactor, workers; ingest, subscriber, query
      return 1 + kShards + clients;
    case SutKind::kCluster:  // 2 backends, coordinator; clients
      return 2 * (1 + kShards) + 1 + clients;
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted,
                 uint64_t failed) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + v +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Quantile `q` of one value taken from each rep.
double OverReps(const std::vector<RepResult>& reps, double q,
                double (*get)(const RepResult&)) {
  Samples v;
  for (const RepResult& r : reps) v.Add(get(r));
  return v.Quantile(q);
}

// A neighbour on a shared machine only ever slows a rep down, so a timing
// is summarised by the quartile of its per-rep values on the fast side:
// the upper quartile of throughput, the lower quartile of setup time. A
// regression moves the quiet reps as much as the noisy ones; a burst of
// steal time moves only the noisy ones.
constexpr double kFastHigh = 0.75;
constexpr double kFastLow = 0.25;

/// Untraced run: one open-loop rep, for the checks only it makes (the
/// QUERY checksum against the mirror) and a line of its latencies, then
/// closed-loop reps, each on a fresh system under test, until the time
/// budget is spent. The per-rep values are summarised as in kFastHigh.
int RunEndToEnd(const Inputs& in, const Args& args) {
  const RepConfig cfg = ConfigFor(*in.spec);
  const uint64_t t0 = MonotonicNanos();
  const auto elapsed = [&] { return (MonotonicNanos() - t0) / 1e9; };
  const RepResult open = RunOpenRep(in, cfg);
  std::printf("open loop at %.0f items/s: ack p50/p99 %.1f/%.1f us, alert "
              "p50/p99 %.1f/%.1f us, query p50/p99 %.1f/%.1f us, backlog "
              "growth %.0f items\n",
              in.spec->open_rate, open.ack_us.Quantile(0.5),
              open.ack_us.Quantile(0.99), open.alert_us.Quantile(0.5),
              open.alert_us.Quantile(0.99), open.query_us.Quantile(0.5),
              open.query_us.Quantile(0.99), open.backlog_growth);
  std::vector<RepResult> closed;
  while (closed.size() < 4 ||
         (elapsed() < args.seconds && closed.size() < 512)) {
    closed.push_back(RunClosedRep(in, cfg));
    std::printf("rep %zu: closed %.0f items/s | setup %.4f s\n",
                closed.size(), closed.back().items_per_s,
                closed.back().setup_s);
  }
  std::vector<RepResult> all = closed;
  all.push_back(open);
  uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : all) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::vector<Metric> m = {
      {"items_per_s", "1/s",
       OverReps(closed, kFastHigh, [](const RepResult& r) { return r.items_per_s; })},
      {"f1", "ratio",
       OverReps(all, 0.5, [](const RepResult& r) { return r.f1; })},
      {"setup_s", "s",
       OverReps(all, kFastLow, [](const RepResult& r) { return r.setup_s; })},
      {"rss_mb", "MiB",
       OverReps(all, 0.5, [](const RepResult& r) { return r.rss_mb; })},
  };
  std::printf("reps: 1 open-loop (%zu frames; %zu alerts, %zu queries), "
              "%zu closed-loop, %.1f s\n",
              in.frames(), open.alert_us.size(), open.query_us.size(),
              closed.size(), elapsed());
  PrintResult(m, attempted, failed);
  return 0;
}

/// Traced run: per-layer probes, traced and untraced closed reps of the
/// system under test for the time budget (for trace.overhead_ratio), one
/// traced open rep (for loadgen validity), and the direct-server and
/// cluster legs that price the net and cluster layers and the coordinator
/// hop.
int RunTraced(const Inputs& in, const Args& args) {
  const WorkloadSpec& w = *in.spec;
  const RepConfig cfg = ConfigFor(w);
  Tracer& tracer = Tracer::Get();
  LayerMetrics m;
  tracer.SetEnabled(true);
  CoreProbe(in, &m);
  ParallelProbe(in, &m);
  DurableProbe(in, &m);
  CodecProbe(in, &m);

  // Untraced and traced closed-loop reps alternate until the time budget
  // is spent (at least two of each). Only the first traced rep's spans are
  // kept, so a long run does not pile them up in memory.
  std::vector<double> traced_rate, plain_rate;
  RepResult traced_closed;
  std::vector<Tracer::Span> spans;
  const uint64_t t0 = MonotonicNanos();
  while (traced_rate.size() < 2 ||
         (MonotonicNanos() - t0) / 1e9 < args.seconds) {
    tracer.SetEnabled(false);
    plain_rate.push_back(RunClosedRep(in, cfg).items_per_s);
    tracer.SetEnabled(true);
    RepResult rep = RunClosedRep(in, cfg);
    traced_rate.push_back(rep.items_per_s);
    if (traced_rate.size() == 1) {
      traced_closed = std::move(rep);
      spans = tracer.Collect();
    } else {
      tracer.Collect();
    }
  }
  const RepResult open = RunOpenRep(in, cfg);
  m["trace.overhead_ratio"] = MedianOf(traced_rate) / MedianOf(plain_rate);
  m["loadgen.late_us_p99"] = open.late_us.Quantile(0.99);
  // The open-loop latencies. They are not end-to-end metrics: on a
  // shared, time-sliced machine they swing between runs past any bound a
  // regression gate could use (README.md), so they are reported here
  // unbound.
  m["loadgen.ack_us_p50"] = open.ack_us.Quantile(0.5);
  m["loadgen.ack_us_p99"] = open.ack_us.Quantile(0.99);
  m["loadgen.query_us_p50"] = open.query_us.Quantile(0.5);
  m["loadgen.query_us_p99"] = open.query_us.Quantile(0.99);
  m["loadgen.alert_delay_us_p50"] = open.alert_us.Quantile(0.5);
  m["loadgen.alert_delay_us_p99"] = open.alert_us.Quantile(0.99);
  m["loadgen.backlog_growth"] = open.backlog_growth;
  m["parallel.worker_parks_per_mitem"] =
      static_cast<double>(open.worker_parks) * 1e6 / open.items;

  // The net layer as this workload's clients see it: its own server, or a
  // non-durable 2-shard server fed the same frames when it has none.
  RepConfig direct_cfg;
  direct_cfg.kind = SutKind::kServer;
  direct_cfg.window = w.kind == SutKind::kEmbedded ? 8 : w.window_frames;
  direct_cfg.closed_loop_queries = true;
  const RepResult net = w.kind == SutKind::kServer
                            ? traced_closed
                            : RunClosedRep(in, direct_cfg);
  const Samples& query_rtt =
      w.kind == SutKind::kEmbedded ? net.query_rtt_us : open.query_rtt_us;
  m["net.send_us_per_frame"] = net.send_us.Sum() / net.send_us.size();
  m["net.ingest_rtt_us_p50"] = net.rtt_us.Quantile(0.5);
  m["net.ingest_rtt_us_p99"] = net.rtt_us.Quantile(0.99);
  m["net.query_rtt_us_p50"] = query_rtt.Quantile(0.5);
  m["net.query_rtt_us_p99"] = query_rtt.Quantile(0.99);
  m["net.alerts_dropped"] = static_cast<double>(net.alerts_dropped);
  m["net.slow_disconnects"] = static_cast<double>(net.slow_disconnects);
  // The WAL-sync and deferred-ack stages exist only on a durable server;
  // elsewhere they would read 0 on every run.
  std::vector<const char*> stages = {"decode", "queue_wait", "insert"};
  if (w.kind == SutKind::kServer && w.durable) {
    stages.insert(stages.end(), {"wal_sync", "ack"});
  }
  for (const char* stage : stages) {
    const std::string h = std::string("qf_stage_") + stage + "_ns";
    const std::string base = std::string("net.stage.") + stage;
    m[base + "_us_p50"] =
        HistogramDeltaQuantile(net.before, net.after, h, 0.5) / 1e3;
    m[base + "_us_p99"] =
        HistogramDeltaQuantile(net.before, net.after, h, 0.99) / 1e3;
  }

  // The coordinator hop, on the same frames: proxied minus direct RTT.
  RepConfig cluster_cfg = direct_cfg;
  cluster_cfg.kind = SutKind::kCluster;
  cluster_cfg.closed_loop_queries = false;
  cluster_cfg.sample_ledger = true;
  const RepResult cl = w.kind == SutKind::kCluster
                           ? traced_closed
                           : RunClosedRep(in, cluster_cfg);
  const double flushes = static_cast<double>(
      CounterValue(cl.after, "qf_cluster_coalesced_flushes_total") -
      CounterValue(cl.before, "qf_cluster_coalesced_flushes_total"));
  const double coalesced = static_cast<double>(
      CounterValue(cl.after, "qf_cluster_coalesced_items_total") -
      CounterValue(cl.before, "qf_cluster_coalesced_items_total"));
  m["cluster.items_per_flush"] = flushes > 0 ? coalesced / flushes : 0.0;
  m["cluster.backend_skew"] = cl.backend_skew;
  m["cluster.ledger_depth_max"] = cl.ledger_depth_max;
  m["cluster.ready_s"] = cl.ready_s;
  constexpr size_t kHopFrames = 2000;
  const Samples proxied = WindowOneRtts(in, SutKind::kCluster, kHopFrames);
  const Samples direct = WindowOneRtts(in, SutKind::kServer, kHopFrames);
  m["cluster.hop_rtt_us_p50"] = proxied.Quantile(0.5) - direct.Quantile(0.5);
  m["cluster.hop_rtt_us_p99"] = proxied.Quantile(0.99) - direct.Quantile(0.99);
  tracer.SetEnabled(false);

  const std::vector<Tracer::Span> rest = tracer.Collect();
  spans.insert(spans.end(), rest.begin(), rest.end());
  std::filesystem::create_directories(".bench_out");
  const std::string path = std::string(".bench_out/trace-") + w.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!Tracer::WriteChromeJson(spans, path, 400'000)) {
    std::fprintf(stderr, "qfbench: could not write %s\n", path.c_str());
  }
  std::printf("trace: %zu spans -> %s\nper-layer self time:\n%s", spans.size(),
              path.c_str(), Tracer::SelfTimeTable(spans).c_str());

  std::vector<Metric> out;
  for (const auto& [name, value] : m) {
    std::string unit = "ratio";
    const auto ends = [&](const char* suf) {
      const size_t n = std::strlen(suf);
      return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
    };
    if (name.find("_us") != std::string::npos) unit = "us";
    if (name.find("_ns_") != std::string::npos) unit = "ns";
    if (ends("ready_s")) unit = "s";
    if (ends("_per_mitem")) unit = "1/Mitem";
    if (ends("bytes_per_item")) unit = "B";
    if (ends("items_per_flush") || ends("ledger_depth_max") ||
        ends("backlog_growth") || ends("alerts_dropped") ||
        ends("slow_disconnects")) {
      unit = "count";
    }
    out.push_back({name, unit, value});
  }
  const uint64_t attempted = in.trace.size();
  PrintResult(out, attempted, net.failed + open.failed + cl.failed);
  return 0;
}

}  // namespace
}  // namespace qfbench

int main(int argc, char** argv) {
  using namespace qfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) || FindWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: qfbench --workload <embedded|serve-bulk|serve-mixed|"
                 "cluster> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec& w = *FindWorkload(args.workload);
  const unsigned nproc = std::thread::hardware_concurrency();
  const int busy = BusyThreads(w);
  std::printf(
      "fingerprint: {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"cpu_model\": \"%s\", \"nproc\": "
      "%u, \"git_sha\": \"%s\", \"busy_threads\": %d, \"time_sliced\": %s}\n",
      w.name, args.seed, args.seconds, args.trace ? 1 : 0,
      JsonEscape(CpuModel()).c_str(), nproc, JsonEscape(args.git_sha).c_str(),
      busy, busy > static_cast<int>(nproc) ? "true" : "false");
  std::fflush(stdout);
  Watchdog::Get().Start(w.name);
  int rc = 1;
  try {
    Watchdog::Get().Phase("inputs", 120.0);
    const Inputs in = BuildInputs(w, args.seed);
    std::printf("inputs: %zu items, %zu keys, %zu frames of %zu, %zu true "
                "outstanding keys, %zu mirror reports\n",
                in.trace.size(), in.support.size(), in.frames(),
                w.frame_items, in.truth.size(), in.mirror_report_count());
    rc = args.trace ? RunTraced(in, args) : RunEndToEnd(in, args);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "qfbench: workload %s: check '%s' failed: %s\n",
                 w.name, e.check.c_str(), e.what());
    rc = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qfbench: workload %s: check 'run' failed: %s\n",
                 w.name, e.what());
    rc = 1;
  }
  Watchdog::Get().Stop();
  return rc;
}
