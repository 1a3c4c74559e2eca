// qf_loadgen: multi-connection Zipf load generator for qf_server
// (DESIGN.md §11).
//
// Spawns one thread + one connection each, streams Zipf-distributed
// <key,value> items in pipelined INGEST frames (a bounded window of
// unacknowledged frames keeps the wire and the server busy at once), and
// reports achieved items/s plus ingest round-trip latency percentiles from
// the obs histogram plumbing (qf_loadgen_ingest_rtt_ns). The round trip
// starts at SendIngest, so it includes the time a frame waits in
// QfClient's output buffer before it is sent.
//
// Exit status is non-zero if any connection fails, or if --expect-rate is
// given and the achieved items/s falls short (CI uses this as a perf gate).
//
// Example (the acceptance setup: 4 connections vs a 4-shard server):
//   qf_server --port=7171 --shards=4 &
//   qf_loadgen --port=7171 --connections=4 --items=8000000

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/time.h"
#include "common/zipf.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "parallel/placement.h"
#include "stream/item.h"

namespace qf {
namespace {

void PrintUsage() {
  std::printf(
      "qf_loadgen: Zipf load generator for qf_server\n\n"
      "target:\n"
      "  --host=ADDR --port=N  server address (default 127.0.0.1:7171)\n\n"
      "load shape:\n"
      "  --connections=N       parallel connections (default 4)\n"
      "  --items=N             total items across connections (default 4e6)\n"
      "  --batch=N             items per INGEST frame (default 512)\n"
      "  --window=N            unacked frames in flight (default 8)\n"
      "  --keys=N              Zipf support size (default 100000)\n"
      "  --alpha=X             Zipf skew (default 1.1)\n"
      "  --value=X             per-item value (default 1.0)\n"
      "  --seed=N              RNG seed base (default 1)\n\n"
      "placement:\n"
      "  --pin-cpus            pin connection c to core pin-offset + c, so\n"
      "                        client threads stop migrating onto the\n"
      "                        server's reactor/worker cores\n"
      "  --pin-offset=N        first core for --pin-cpus (default 0)\n\n"
      "sweep mode (in-process servers, exercises SO_REUSEPORT):\n"
      "  --sweep-reactors=LIST   e.g. 1,2,4 — for each R, boot a loopback\n"
      "                        qf_server with R reactors on an ephemeral\n"
      "                        port, run the load shape above against it,\n"
      "                        and print items/s per R. --expect-rate then\n"
      "                        applies to the best config.\n"
      "  --sweep-shards=N      shards for the swept servers (default 4)\n"
      "  --sweep-memory=BYTES  filter budget for the swept servers\n"
      "                        (default 1048576)\n\n"
      "cluster loopback mode (in-process backends + coordinator):\n"
      "  --cluster=M           boot M loopback qf_servers plus a cluster\n"
      "                        coordinator, run the load shape through the\n"
      "                        proxy, then drain and check cluster-wide\n"
      "                        conservation via the summed CONTROL kStats.\n"
      "                        --expect-rate applies to the proxied rate.\n"
      "  --cluster-slots=N     slot/shard count, identical on every backend\n"
      "                        (default 6)\n"
      "  --cluster-memory=B    per-backend filter budget (default 1048576)\n\n"
      "wrap-up:\n"
      "  --drain               CONTROL kDrain after the load\n"
      "  --stats               print server WireStats after the load\n"
      "  --shutdown            CONTROL kShutdown when done\n"
      "  --expect-rate=N       exit 1 unless items/s >= N\n"
      "  --query-sample=N      QUERY keys 1..N after the load and print a\n"
      "                        checksum over the answers (CI compares a\n"
      "                        cluster run against a single-process mirror)\n"
      "  --metrics-prom=PATH   write one Prometheus snapshot at exit\n"
      "  --append-json=PATH    append this run to a qf_bench_gate-compatible\n"
      "                        trajectory (cell: --json-trace/--json-config,\n"
      "                        layout \"serve\", budget_bytes 0)\n"
      "  --json-trace=NAME     trajectory trace label (default loopback)\n"
      "  --json-config=NAME    trajectory config label (default serve)\n");
}

struct WorkerResult {
  bool ok = false;
  std::string error;
  uint64_t items = 0;
};

void RunWorker(int id, const std::string& host, uint16_t port,
               uint64_t items, size_t batch, size_t window, uint64_t keys,
               double alpha, double value, uint64_t seed, int pin_cpu,
               obs::Histogram* rtt_ns, WorkerResult* result) {
  // Pinning the client side keeps these threads off the server's reactor
  // and worker cores on shared-machine (loopback) runs — otherwise the
  // scheduler's migrations are the dominant noise in the measured rate.
  if (pin_cpu >= 0) PinThreadToCore(pin_cpu);
  net::QfClient client;
  if (!client.Connect(host, port)) {
    result->error = client.error();
    return;
  }
  Rng rng(seed + static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL);
  const ZipfSampler sampler(keys, alpha);
  std::vector<Item> frame;
  frame.reserve(batch);
  // Send timestamps for in-flight frames, acked in FIFO order.
  std::vector<uint64_t> sent_at;
  size_t sent_head = 0;

  const auto await_one = [&]() -> bool {
    if (!client.AwaitIngestAck()) {
      result->error = client.error();
      return false;
    }
    rtt_ns->Record(MonotonicNanos() - sent_at[sent_head++]);
    return true;
  };

  uint64_t sent_items = 0;
  while (sent_items < items) {
    frame.clear();
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(batch, items - sent_items));
    for (size_t i = 0; i < n; ++i) {
      frame.push_back(Item{sampler.Sample(rng), value});
    }
    sent_at.push_back(MonotonicNanos());
    if (!client.SendIngest(frame)) {
      result->error = client.error();
      return;
    }
    sent_items += n;
    while (client.ingest_in_flight() >= window) {
      if (!await_one()) return;
    }
  }
  while (client.ingest_in_flight() > 0) {
    if (!await_one()) return;
  }
  result->items = sent_items;
  result->ok = true;
}

struct LoadShape {
  int connections;
  uint64_t total_items;
  size_t batch;
  size_t window;
  uint64_t keys;
  double alpha;
  double value;
  uint64_t seed;
  bool pin_cpus;
  int pin_offset;
};

/// Runs the full multi-connection load against host:port. Returns false on
/// any connection failure; on success *rate_out is achieved items/s.
bool RunLoad(const std::string& host, uint16_t port, const LoadShape& shape,
             obs::Histogram* rtt_ns, double* rate_out) {
  std::vector<WorkerResult> results(
      static_cast<size_t>(shape.connections));
  std::vector<std::thread> threads;
  const uint64_t per_conn =
      shape.total_items / static_cast<uint64_t>(shape.connections);
  const uint64_t t0 = MonotonicNanos();
  for (int c = 0; c < shape.connections; ++c) {
    // The last connection absorbs the rounding remainder.
    const uint64_t n =
        c == shape.connections - 1
            ? shape.total_items -
                  per_conn * static_cast<uint64_t>(shape.connections - 1)
            : per_conn;
    const int pin_cpu = shape.pin_cpus ? shape.pin_offset + c : -1;
    threads.emplace_back(RunWorker, c, host, port, n, shape.batch,
                         shape.window, shape.keys, shape.alpha, shape.value,
                         shape.seed, pin_cpu, rtt_ns,
                         &results[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(MonotonicNanos() - t0) * 1e-9;

  uint64_t items = 0;
  for (size_t c = 0; c < results.size(); ++c) {
    if (!results[c].ok) {
      std::fprintf(stderr, "qf_loadgen: connection %zu failed: %s\n", c,
                   results[c].error.c_str());
      return false;
    }
    items += results[c].items;
  }
  *rate_out = static_cast<double>(items) / elapsed_s;
  std::printf(
      "qf_loadgen: %llu items over %d connections in %.3f s = %.0f "
      "items/s\n",
      static_cast<unsigned long long>(items), shape.connections, elapsed_s,
      *rate_out);
  return true;
}

/// Sweep mode: boots one in-process loopback server per reactor count,
/// runs the identical load shape against each, and prints the scaling
/// table. This is what lets CI gate the SO_REUSEPORT path without shell
/// choreography around background qf_server processes.
int RunReactorSweep(const std::vector<int>& reactor_counts,
                    const LoadShape& shape, int sweep_shards,
                    size_t sweep_memory, double expect_rate,
                    obs::Histogram* rtt_ns) {
  double best_rate = 0.0;
  int best_reactors = 0;
  std::vector<double> rates;
  for (const int reactors : reactor_counts) {
    net::QfServer::Options opts;
    opts.port = 0;  // ephemeral: sweeps never collide
    opts.num_shards = sweep_shards;
    opts.filter.memory_bytes = sweep_memory;
    opts.reactors = reactors;
    net::QfServer server(opts);
    if (!server.Start()) {
      std::fprintf(stderr, "qf_loadgen: sweep reactors=%d: %s\n", reactors,
                   server.error().c_str());
      return 1;
    }
    std::printf("qf_loadgen: sweep reactors=%d (port %u)\n", reactors,
                server.port());
    double rate = 0.0;
    if (!RunLoad("127.0.0.1", server.port(), shape, rtt_ns, &rate)) {
      server.Stop();
      return 1;
    }
    // Conservation check after a quiesce: every acked item reached a shard
    // regardless of which reactor carried it.
    net::QfClient ctl;
    if (!ctl.Connect("127.0.0.1", server.port()) || !ctl.Drain()) {
      std::fprintf(stderr, "qf_loadgen: sweep drain: %s\n",
                   ctl.error().c_str());
      server.Stop();
      return 1;
    }
    net::WireStats stats;
    if (!ctl.Stats(&stats) ||
        stats.items_processed != stats.items_ingested) {
      std::fprintf(stderr,
                   "qf_loadgen: sweep reactors=%d lost items (%llu ingested,"
                   " %llu processed)\n",
                   reactors,
                   static_cast<unsigned long long>(stats.items_ingested),
                   static_cast<unsigned long long>(stats.items_processed));
      server.Stop();
      return 1;
    }
    server.Stop();
    rates.push_back(rate);
    if (rate > best_rate) {
      best_rate = rate;
      best_reactors = reactors;
    }
  }
  std::printf("qf_loadgen: sweep summary (%d cores online):\n",
              OnlineCores());
  for (size_t i = 0; i < reactor_counts.size(); ++i) {
    std::printf("  reactors=%-2d %12.0f items/s (%.2fx of reactors=%d)\n",
                reactor_counts[i], rates[i],
                rates[0] > 0.0 ? rates[i] / rates[0] : 0.0,
                reactor_counts[0]);
  }
  if (expect_rate > 0.0 && best_rate < expect_rate) {
    std::fprintf(
        stderr,
        "qf_loadgen: best sweep config (reactors=%d) achieved %.0f items/s "
        "< expected %.0f\n",
        best_reactors, best_rate, expect_rate);
    return 1;
  }
  return 0;
}

/// QUERY keys 1..n (the Zipf support) and print an FNV-1a checksum over the
/// answers. Two servers fed the same stream with the same geometry and seed
/// must print the same checksum — the CI cluster smoke compares a proxied
/// cluster against a single-process mirror with this.
bool QuerySampleChecksum(const std::string& host, uint16_t port,
                         uint64_t n) {
  net::QfClient ctl;
  if (!ctl.Connect(host, port)) {
    std::fprintf(stderr, "qf_loadgen: query-sample connect: %s\n",
                 ctl.error().c_str());
    return false;
  }
  uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  std::vector<uint64_t> keys;
  std::vector<net::QueryAnswer> answers;
  uint64_t next = 1;
  while (next <= n) {
    keys.clear();
    for (; next <= n && keys.size() < 8192; ++next) keys.push_back(next);
    if (!ctl.Query(keys, &answers)) {
      std::fprintf(stderr, "qf_loadgen: query-sample: %s\n",
                   ctl.error().c_str());
      return false;
    }
    for (const net::QueryAnswer& a : answers) {
      mix(static_cast<uint64_t>(a.qweight));
      mix(a.is_candidate);
    }
  }
  std::printf("qf_loadgen: query-sample %llu checksum %016llx\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(hash));
  return true;
}

/// Cluster loopback mode: boots `backends` in-process qf_servers with
/// identical geometry plus a coordinator over them, runs the load shape
/// through the proxy, then drains and checks cluster-wide conservation via
/// the coordinator's summed kStats. This is the single-binary analogue of
/// the CI cluster smoke, and what --expect-rate gates for the proxied path.
int RunClusterLoopback(int backends, int slots, size_t memory,
                       const LoadShape& shape, uint64_t query_sample,
                       obs::Histogram* rtt_ns, double* rate_out) {
  std::vector<std::unique_ptr<net::QfServer>> servers;
  cluster::CoordinatorOptions copts;
  for (int b = 0; b < backends; ++b) {
    net::QfServer::Options opts;
    opts.port = 0;  // ephemeral
    opts.num_shards = slots;
    opts.filter.memory_bytes = memory;
    servers.push_back(std::make_unique<net::QfServer>(opts));
    if (!servers.back()->Start()) {
      std::fprintf(stderr, "qf_loadgen: cluster backend %d: %s\n", b,
                   servers.back()->error().c_str());
      return 1;
    }
    copts.backends.push_back("127.0.0.1:" +
                             std::to_string(servers.back()->port()));
  }
  copts.num_slots = static_cast<uint32_t>(slots);
  cluster::Coordinator coord(copts);
  const auto stop_all = [&] {
    coord.Stop();
    for (auto& s : servers) s->Stop();
  };
  if (!coord.Start()) {
    std::fprintf(stderr, "qf_loadgen: coordinator: %s\n",
                 coord.error().c_str());
    stop_all();
    return 1;
  }
  // Backend connections come up asynchronously; wait for kReady everywhere
  // before timing anything.
  net::QfClient probe;
  bool all_ready = false;
  const uint64_t deadline = MonotonicNanos() + 10'000'000'000ULL;
  if (probe.Connect("127.0.0.1", coord.port())) {
    while (MonotonicNanos() < deadline) {
      net::WireTopology topo;
      if (!probe.FetchTopology(&topo)) break;
      all_ready = !topo.backends.empty();
      for (const net::WireBackend& wb : topo.backends) {
        if (wb.state != net::BackendState::kReady) all_ready = false;
      }
      if (all_ready) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (!all_ready) {
    std::fprintf(stderr,
                 "qf_loadgen: cluster backends never reached kReady\n");
    stop_all();
    return 1;
  }
  std::printf(
      "qf_loadgen: cluster %d backends x %d slots (proxy port %u)\n",
      backends, slots, coord.port());
  if (!RunLoad("127.0.0.1", coord.port(), shape, rtt_ns, rate_out)) {
    stop_all();
    return 1;
  }
  // Conservation through the proxy: every item the generator got acked for
  // must be ingested AND processed by some backend. The coordinator's
  // kStats reply sums backend counters, so one check covers the cluster.
  net::QfClient ctl;
  net::WireStats stats;
  if (!ctl.Connect("127.0.0.1", coord.port()) || !ctl.Drain() ||
      !ctl.Stats(&stats)) {
    std::fprintf(stderr, "qf_loadgen: cluster drain/stats: %s\n",
                 ctl.error().c_str());
    stop_all();
    return 1;
  }
  if (stats.items_ingested != shape.total_items ||
      stats.items_processed != stats.items_ingested) {
    std::fprintf(stderr,
                 "qf_loadgen: cluster lost items (%llu sent, %llu ingested, "
                 "%llu processed)\n",
                 static_cast<unsigned long long>(shape.total_items),
                 static_cast<unsigned long long>(stats.items_ingested),
                 static_cast<unsigned long long>(stats.items_processed));
    stop_all();
    return 1;
  }
  std::printf(
      "  cluster: %llu ingested, %llu processed across %d backends\n",
      static_cast<unsigned long long>(stats.items_ingested),
      static_cast<unsigned long long>(stats.items_processed), backends);
  if (query_sample > 0 &&
      !QuerySampleChecksum("127.0.0.1", coord.port(), query_sample)) {
    stop_all();
    return 1;
  }
  stop_all();
  return 0;
}

/// Trajectory fingerprint helpers, mirroring bench/throughput_batch_mt.cc
/// so qf_bench_gate can treat loadgen cells like bench cells.
std::string GitSha() {
  const char* env = std::getenv("QF_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
  return "unknown";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon != std::string::npos &&
        line.compare(0, 10, "model name") == 0) {
      size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

/// Appends one run to a qf_bench_gate-compatible trajectory JSON using the
/// same splice-before-the-closing-bracket idiom as the benchmark's
/// --append: a missing or empty file becomes a fresh array.
bool AppendTrajectory(const std::string& path, const std::string& trace,
                      const std::string& config, const LoadShape& shape,
                      double rate) {
  std::ostringstream run;
  run << "  {\n"
      << "    \"items\": " << shape.total_items << ",\n"
      << "    \"reps\": 1,\n"
      << "    \"simd\": \"serve\",\n"
      << "    \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "    \"cpu_model\": \"" << CpuModel() << "\",\n"
      << "    \"git_sha\": \"" << GitSha() << "\",\n"
      << "    \"unix_time\": "
      << static_cast<long long>(std::time(nullptr)) << ",\n"
      << "    \"results\": [\n"
      << "      {\"trace\": \"" << trace << "\", \"budget_bytes\": 0, "
      << "\"config\": \"" << config << "\", \"layout\": \"serve\", "
      << "\"mops\": " << rate / 1e6 << ", \"mops_mad\": 0.0, \"reps\": 1}\n"
      << "    ]\n"
      << "  }";

  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  const size_t bracket = existing.rfind(']');
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "qf_loadgen: cannot write %s\n", path.c_str());
    return false;
  }
  if (bracket == std::string::npos) {
    out << "[\n" << run.str() << "\n]\n";
  } else {
    std::string head = existing.substr(0, bracket);
    while (!head.empty() &&
           (head.back() == '\n' || head.back() == ' ' ||
            head.back() == '\t' || head.back() == '\r')) {
      head.pop_back();
    }
    // An empty array ("[") takes the run without a separating comma.
    const bool first = !head.empty() && head.back() == '[';
    out << head << (first ? "\n" : ",\n") << run.str() << "\n]\n";
  }
  return out.good();
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 7171));
  const int connections =
      static_cast<int>(flags.GetInt("connections", 4));
  const uint64_t total_items =
      static_cast<uint64_t>(flags.GetInt("items", 4'000'000));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 512));
  const size_t window = static_cast<size_t>(flags.GetInt("window", 8));
  const uint64_t keys = static_cast<uint64_t>(flags.GetInt("keys", 100'000));
  const double alpha = flags.GetDouble("alpha", 1.1);
  const double value = flags.GetDouble("value", 1.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool pin_cpus = flags.Has("pin-cpus");
  const int pin_offset = static_cast<int>(flags.GetInt("pin-offset", 0));
  const std::string sweep_list = flags.GetString("sweep-reactors", "");
  const int sweep_shards =
      static_cast<int>(flags.GetInt("sweep-shards", 4));
  const size_t sweep_memory =
      static_cast<size_t>(flags.GetInt("sweep-memory", 1 << 20));
  const int cluster_backends = static_cast<int>(flags.GetInt("cluster", 0));
  const int cluster_slots =
      static_cast<int>(flags.GetInt("cluster-slots", 6));
  const size_t cluster_memory =
      static_cast<size_t>(flags.GetInt("cluster-memory", 1 << 20));
  const bool do_drain = flags.Has("drain");
  const bool do_stats = flags.Has("stats");
  const bool do_shutdown = flags.Has("shutdown");
  const double expect_rate = flags.GetDouble("expect-rate", 0.0);
  const uint64_t query_sample =
      static_cast<uint64_t>(flags.GetInt("query-sample", 0));
  const std::string prom_path = flags.GetString("metrics-prom", "");
  const std::string append_json = flags.GetString("append-json", "");
  const std::string json_trace = flags.GetString("json-trace", "loopback");
  const std::string json_config = flags.GetString("json-config", "serve");

  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "qf_loadgen: unknown flag --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }
  // --items=0 is a wrap-up-only pass (drain/stats/query-sample against an
  // already-loaded server, mutating nothing); sweep and cluster modes need
  // a real load.
  if (connections < 1 || batch < 1 || window < 1 ||
      (total_items < 1 &&
       (cluster_backends > 0 || !sweep_list.empty() ||
        (!do_drain && !do_stats && !do_shutdown && query_sample == 0)))) {
    std::fprintf(stderr, "qf_loadgen: bad load shape\n");
    return 2;
  }

  obs::Histogram& rtt_ns = obs::MetricsRegistry::Global().GetHistogram(
      "qf_loadgen_ingest_rtt_ns",
      "INGEST frame round-trip latency (send to ack, ns)");

  LoadShape shape;
  shape.connections = connections;
  shape.total_items = total_items;
  shape.batch = batch;
  shape.window = window;
  shape.keys = keys;
  shape.alpha = alpha;
  shape.value = value;
  shape.seed = seed;
  shape.pin_cpus = pin_cpus;
  shape.pin_offset = pin_offset;

  if (!sweep_list.empty()) {
    std::vector<int> reactor_counts;
    size_t pos = 0;
    while (pos < sweep_list.size()) {
      size_t comma = sweep_list.find(',', pos);
      if (comma == std::string::npos) comma = sweep_list.size();
      const int r = std::atoi(sweep_list.substr(pos, comma - pos).c_str());
      if (r < 1) {
        std::fprintf(stderr, "qf_loadgen: bad --sweep-reactors=%s\n",
                     sweep_list.c_str());
        return 2;
      }
      reactor_counts.push_back(r);
      pos = comma + 1;
    }
    return RunReactorSweep(reactor_counts, shape, sweep_shards,
                           sweep_memory, expect_rate, &rtt_ns);
  }

  double rate = 0.0;
  if (cluster_backends > 0) {
    if (cluster_slots < 1) {
      std::fprintf(stderr, "qf_loadgen: bad --cluster-slots\n");
      return 2;
    }
    const int rc =
        RunClusterLoopback(cluster_backends, cluster_slots, cluster_memory,
                           shape, query_sample, &rtt_ns, &rate);
    if (rc != 0) return rc;
  } else if (total_items > 0 &&
             !RunLoad(host, port, shape, &rtt_ns, &rate)) {
    return 1;
  }
  if (total_items > 0) {
    const obs::HistogramData rtt = rtt_ns.Merged();
    std::printf(
        "  ingest rtt: p50 %.1f us, p99 %.1f us, max %.1f us (%llu frames)\n",
        static_cast<double>(rtt.Quantile(0.50)) * 1e-3,
        static_cast<double>(rtt.Quantile(0.99)) * 1e-3,
        static_cast<double>(rtt.max()) * 1e-3,
        static_cast<unsigned long long>(rtt.count()));
  }

  // Wrap-up ops reuse one extra connection. In cluster loopback mode the
  // proxy and backends are already gone — drain/stats/query ran inside.
  if (cluster_backends == 0 &&
      (do_drain || do_stats || do_shutdown || query_sample > 0)) {
    net::QfClient ctl;
    if (!ctl.Connect(host, port)) {
      std::fprintf(stderr, "qf_loadgen: control connection: %s\n",
                   ctl.error().c_str());
      return 1;
    }
    if (do_drain && !ctl.Drain()) {
      std::fprintf(stderr, "qf_loadgen: drain: %s\n", ctl.error().c_str());
      return 1;
    }
    // After the drain, so the checksum covers every acked item.
    if (query_sample > 0 &&
        !QuerySampleChecksum(host, port, query_sample)) {
      return 1;
    }
    if (do_stats) {
      net::WireStats stats;
      if (!ctl.Stats(&stats)) {
        std::fprintf(stderr, "qf_loadgen: stats: %s\n", ctl.error().c_str());
        return 1;
      }
      std::printf(
          "  server: %llu ingested, %llu processed, %llu reports, "
          "%llu alerts streamed (%llu dropped), %llu slow disconnects\n",
          static_cast<unsigned long long>(stats.items_ingested),
          static_cast<unsigned long long>(stats.items_processed),
          static_cast<unsigned long long>(stats.reports),
          static_cast<unsigned long long>(stats.alerts_streamed),
          static_cast<unsigned long long>(stats.alerts_dropped),
          static_cast<unsigned long long>(stats.slow_disconnects));
    }
    if (do_shutdown && !ctl.Shutdown()) {
      std::fprintf(stderr, "qf_loadgen: shutdown: %s\n",
                   ctl.error().c_str());
      return 1;
    }
  }

  if (!append_json.empty() &&
      !AppendTrajectory(append_json, json_trace, json_config, shape, rate)) {
    return 1;
  }

  if (!prom_path.empty()) {
    obs::MetricsSink::Options sink_opts;
    sink_opts.prom_path = prom_path;
    obs::MetricsSink sink(
        [] { return obs::MetricsRegistry::Global().Snapshot(); }, sink_opts);
    if (!sink.WriteOnce()) {
      std::fprintf(stderr, "qf_loadgen: failed to write %s\n",
                   prom_path.c_str());
      return 1;
    }
  }

  if (expect_rate > 0.0 && rate < expect_rate) {
    std::fprintf(stderr,
                 "qf_loadgen: achieved %.0f items/s < expected %.0f\n", rate,
                 expect_rate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace qf

int main(int argc, char** argv) { return qf::Main(argc, argv); }
