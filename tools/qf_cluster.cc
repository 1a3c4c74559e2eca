// qf_cluster: scatter/gather coordinator daemon + control CLI
// (DESIGN.md §16).
//
// Serve mode fronts M qf_server backends with the ordinary wire protocol —
// qf_loadgen and QfClient work against it unchanged:
//
//   qf_server --port=7181 --shards=6 &
//   qf_server --port=7182 --shards=6 &
//   qf_cluster --port=7171 --slots=6 --backends=127.0.0.1:7181,127.0.0.1:7182
//
// Every backend MUST run with --shards equal to --slots (a slot IS a shard
// index); the coordinator cannot verify this remotely.
//
// Control mode attaches to a running coordinator:
//
//   qf_cluster --connect=127.0.0.1:7171 --topology
//   qf_cluster --connect=127.0.0.1:7171 --migrate=3:1   # slot 3 -> backend 1
//   qf_cluster --connect=127.0.0.1:7171 --stats
//   qf_cluster --connect=127.0.0.1:7171 --shutdown

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/topology.h"
#include "common/flags.h"
#include "net/client.h"

namespace qf {
namespace {

void PrintUsage() {
  std::printf(
      "qf_cluster: scatter/gather coordinator for qf_server backends\n\n"
      "serve mode:\n"
      "  --backends=LIST       comma-separated host:port backend addresses\n"
      "  --slots=N             slot count == every backend's --shards\n"
      "  --host=ADDR           listen address (default 127.0.0.1)\n"
      "  --port=N              listen port (default 7171; 0 = ephemeral)\n"
      "  --coalesce-bytes=B    per-backend coalescing buffer cap (default\n"
      "                        262144, clamped under the frame limit); a\n"
      "                        buffer also flushes every event-loop tick\n\n"
      "control mode (against a running coordinator):\n"
      "  --connect=HOST:PORT   attach instead of serving\n"
      "  --topology            print epoch, backend states, slot owners\n"
      "  --migrate=SLOT:B      live-migrate SLOT to backend index B\n"
      "  --stats               print cluster-summed WireStats\n"
      "  --drain               quiesce every backend\n"
      "  --shutdown            stop the coordinator (backends keep running)\n");
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Serve(const std::string& host, uint16_t port,
          const std::string& backend_list, uint32_t slots,
          size_t coalesce_bytes) {
  cluster::CoordinatorOptions opts;
  opts.host = host;
  opts.port = port;
  opts.num_slots = slots;
  opts.coalesce_max_bytes = coalesce_bytes;
  size_t pos = 0;
  while (pos < backend_list.size()) {
    size_t comma = backend_list.find(',', pos);
    if (comma == std::string::npos) comma = backend_list.size();
    const std::string addr = backend_list.substr(pos, comma - pos);
    if (!addr.empty()) opts.backends.push_back(addr);
    pos = comma + 1;
  }
  if (opts.backends.empty() || slots == 0) {
    std::fprintf(stderr, "qf_cluster: need --backends and --slots\n");
    return 2;
  }
  cluster::Coordinator coord(opts);
  if (!coord.Start()) {
    std::fprintf(stderr, "qf_cluster: %s\n", coord.error().c_str());
    return 1;
  }
  // Same banner shape as qf_server so scripts can sed the bound port out.
  std::printf(
      "qf_cluster: listening on %s:%u (%zu backends, %u slots)\n",
      host.c_str(), coord.port(), opts.backends.size(), slots);
  std::fflush(stdout);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (coord.running() && !g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  coord.Stop();
  std::printf("qf_cluster: stopped\n");
  return 0;
}

const char* StateName(net::BackendState s) {
  switch (s) {
    case net::BackendState::kDisconnected: return "disconnected";
    case net::BackendState::kConnecting: return "connecting";
    case net::BackendState::kReady: return "ready";
  }
  return "?";
}

int Control(const std::string& target, bool do_topology,
            const std::string& migrate_spec, bool do_stats, bool do_drain,
            bool do_shutdown) {
  std::string host;
  uint16_t port = 0;
  if (!cluster::SplitHostPort(target, &host, &port)) {
    std::fprintf(stderr, "qf_cluster: bad --connect=%s\n", target.c_str());
    return 2;
  }
  uint32_t slot = 0;
  uint32_t target_b = 0;
  if (!migrate_spec.empty() &&
      !cluster::ParseMigrateSpec(migrate_spec, &slot, &target_b)) {
    std::fprintf(stderr, "qf_cluster: bad --migrate=%s (want SLOT:BACKEND)\n",
                 migrate_spec.c_str());
    return 2;
  }
  net::QfClient client;
  if (!client.Connect(host, port)) {
    std::fprintf(stderr, "qf_cluster: connect: %s\n",
                 client.error().c_str());
    return 1;
  }
  if (do_topology) {
    net::WireTopology topo;
    if (!client.FetchTopology(&topo)) {
      std::fprintf(stderr, "qf_cluster: topology: %s\n",
                   client.error().c_str());
      return 1;
    }
    std::printf("epoch %llu, %zu backends, %zu slots\n",
                static_cast<unsigned long long>(topo.epoch),
                topo.backends.size(), topo.owner.size());
    for (size_t b = 0; b < topo.backends.size(); ++b) {
      std::printf("  backend %zu  %-21s %s\n", b,
                  topo.backends[b].addr.c_str(),
                  StateName(topo.backends[b].state));
    }
    for (size_t s = 0; s < topo.owner.size(); ++s) {
      std::printf("  slot %3zu -> backend %u\n", s, topo.owner[s]);
    }
  }
  if (!migrate_spec.empty()) {
    if (!client.Migrate(slot, target_b)) {
      std::fprintf(stderr, "qf_cluster: migrate: %s\n",
                   client.error().c_str());
      return 1;
    }
    std::printf("qf_cluster: slot %u migrated to backend %u\n", slot,
                target_b);
  }
  if (do_drain && !client.Drain()) {
    std::fprintf(stderr, "qf_cluster: drain: %s\n", client.error().c_str());
    return 1;
  }
  if (do_stats) {
    net::WireStats stats;
    if (!client.Stats(&stats)) {
      std::fprintf(stderr, "qf_cluster: stats: %s\n",
                   client.error().c_str());
      return 1;
    }
    std::printf(
        "cluster: %llu ingested, %llu processed, %llu reports, "
        "%llu alerts streamed (%llu dropped), %llu wal appended, "
        "%llu replayed\n",
        static_cast<unsigned long long>(stats.items_ingested),
        static_cast<unsigned long long>(stats.items_processed),
        static_cast<unsigned long long>(stats.reports),
        static_cast<unsigned long long>(stats.alerts_streamed),
        static_cast<unsigned long long>(stats.alerts_dropped),
        static_cast<unsigned long long>(stats.wal_records_appended),
        static_cast<unsigned long long>(stats.wal_records_replayed));
  }
  if (do_shutdown && !client.Shutdown()) {
    std::fprintf(stderr, "qf_cluster: shutdown: %s\n",
                 client.error().c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  const std::string connect = flags.GetString("connect", "");
  const std::string host = flags.GetString("host", "127.0.0.1");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 7171));
  const std::string backends = flags.GetString("backends", "");
  const uint32_t slots = static_cast<uint32_t>(flags.GetInt("slots", 0));
  const size_t coalesce_bytes =
      static_cast<size_t>(flags.GetInt("coalesce-bytes", 256 << 10));
  const bool do_topology = flags.Has("topology");
  const std::string migrate_spec = flags.GetString("migrate", "");
  const bool do_stats = flags.Has("stats");
  const bool do_drain = flags.Has("drain");
  const bool do_shutdown = flags.Has("shutdown");
  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "qf_cluster: unknown flag --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }
  if (!connect.empty()) {
    return Control(connect, do_topology, migrate_spec, do_stats, do_drain,
                   do_shutdown);
  }
  return Serve(host, port, backends, slots, coalesce_bytes);
}

}  // namespace
}  // namespace qf

int main(int argc, char** argv) { return qf::Main(argc, argv); }
