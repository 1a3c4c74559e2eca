// qf_server: the QuantileFilter serving daemon (DESIGN.md §11).
//
// Binds a QfServer (epoll event loop + sharded ingest pipeline) and serves
// the binary protocol until a CONTROL kShutdown frame or SIGINT/SIGTERM.
// Optionally exports observability snapshots (JSONL + Prometheus text) via
// the obs MetricsSink, restores a checkpoint at boot, and writes one at
// shutdown.
//
// Examples:
//   qf_server --port=7171 --shards=4 --memory=1048576
//   qf_server --port=0 --metrics-prom=/tmp/qf.prom    # ephemeral port
//   qf_server --port=7171 --checkpoint=/var/lib/qf/state.qfck

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "durable/log.h"
#include "durable/storage.h"
#include "net/server.h"
#include "obs/sink.h"
#include "obs/trace_ring.h"

namespace qf {
namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

void PrintUsage() {
  std::printf(
      "qf_server: network serving daemon for QuantileFilter\n\n"
      "listening:\n"
      "  --host=ADDR           bind address (default 127.0.0.1)\n"
      "  --port=N              TCP port; 0 picks one (default 7171)\n\n"
      "filter:\n"
      "  --shards=N            pipeline shards (default 4)\n"
      "  --memory=BYTES        total filter budget (default 1048576)\n"
      "  --eps=X --delta=X --threshold=X   criteria (30 / 0.95 / 300)\n"
      "  --seed=N              filter seed\n"
      "  --layout=NAME         vague layout: classic | blocked (default\n"
      "                        blocked; blocked = one cache miss per item)\n\n"
      "serving:\n"
      "  --reactors=N          SO_REUSEPORT event loops, one pipeline\n"
      "                        producer each (default 1)\n"
      "  --pin                 pin shard workers and reactors to cores\n"
      "  --core-offset=N       first core for the round-robin pinning\n"
      "  --first-touch         pre-fault arenas/sketches on their worker's\n"
      "                        core (NUMA first-touch; implies nothing\n"
      "                        without --pin)\n"
      "  --batch=N             pipeline batch size (default 32)\n"
      "  --alert-ring=N        per-shard alert-ring records (default 4096)\n"
      "  --max-frame=BYTES     protocol frame cap (default 64 MiB)\n"
      "  --max-write-queue=BYTES  per-connection write cap (default 8 MiB)\n"
      "  --checkpoint=PATH     restore at boot (if present), save on exit\n"
      "                        (tmp file + fsync + rename)\n\n"
      "durability (DESIGN.md §14; supersedes --checkpoint when set):\n"
      "  --wal-dir=DIR         write-ahead-log + checkpoint directory;\n"
      "                        boot replays it, ingest acks become durable\n"
      "  --wal-fsync=MODE      group (default: one fsync per reactor loop\n"
      "                        batches acks; an ack means fsynced) | none\n"
      "                        (page cache only: survives kill -9, not\n"
      "                        power loss)\n"
      "  --wal-segment-bytes=N log segment rotation size (default 4 MiB)\n"
      "  --checkpoint-interval=N  full checkpoint every N ingested items\n"
      "                        (0 = only at shutdown; default 0)\n\n"
      "observability:\n"
      "  --metrics-jsonl=PATH  append metric snapshots as JSON lines\n"
      "  --metrics-prom=PATH   atomically rewrite Prometheus exposition\n"
      "  --metrics-interval-ms=N  snapshot period (default 1000)\n"
      "  --trace-json=PATH     enable the trace ring (sampled stage spans,\n"
      "                        DESIGN.md §15) and dump chrome://tracing\n"
      "                        JSON at shutdown\n");
}

bool ReadFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

// FsStorage::AtomicWrite writes PATH.tmp, fsyncs it, renames it over PATH
// and fsyncs the directory: a kill or power loss mid-save leaves the
// previous checkpoint whole.
bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  const std::filesystem::path file(path);
  durable::FsStorage dir(file.has_parent_path() ? file.parent_path().string()
                                                : ".");
  return dir.ok() && dir.AtomicWrite(file.filename().string(), bytes);
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }

  net::QfServer::Options opts;
  opts.host = flags.GetString("host", "127.0.0.1");
  opts.port = static_cast<uint16_t>(flags.GetInt("port", 7171));
  opts.num_shards = static_cast<int>(flags.GetInt("shards", 4));
  opts.filter.memory_bytes =
      static_cast<size_t>(flags.GetInt("memory", 1 << 20));
  opts.filter.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(opts.filter.seed)));
  const std::string layout = flags.GetString("layout", "blocked");
  if (layout == "blocked") {
    opts.filter.vague_layout = VagueLayout::kBlocked;
  } else if (layout == "classic") {
    opts.filter.vague_layout = VagueLayout::kClassic;
  } else {
    std::fprintf(stderr, "qf_server: unknown --layout=%s (see --help)\n",
                 layout.c_str());
    return 2;
  }
  opts.criteria =
      Criteria(flags.GetDouble("eps", 30.0), flags.GetDouble("delta", 0.95),
               flags.GetDouble("threshold", 300.0));
  opts.reactors = static_cast<int>(flags.GetInt("reactors", 1));
  opts.placement.pin_threads = flags.Has("pin");
  opts.placement.core_offset =
      static_cast<int>(flags.GetInt("core-offset", 0));
  opts.placement.first_touch_arenas = flags.Has("first-touch");
  opts.batch_size = static_cast<size_t>(flags.GetInt("batch", 32));
  opts.alert_ring_records =
      static_cast<size_t>(flags.GetInt("alert-ring", 4096));
  opts.max_frame_bytes = static_cast<size_t>(
      flags.GetInt("max-frame", static_cast<int64_t>(net::kDefaultMaxFrameBytes)));
  opts.max_write_queue_bytes =
      static_cast<size_t>(flags.GetInt("max-write-queue", 8 << 20));

  std::string checkpoint = flags.GetString("checkpoint", "");
  opts.durable.wal_dir = flags.GetString("wal-dir", "");
  const std::string fsync_mode = flags.GetString("wal-fsync", "group");
  if (!durable::ParseFsyncMode(fsync_mode, &opts.durable.fsync)) {
    std::fprintf(stderr, "qf_server: unknown --wal-fsync=%s (see --help)\n",
                 fsync_mode.c_str());
    return 2;
  }
  opts.durable.segment_bytes = static_cast<size_t>(
      flags.GetInt("wal-segment-bytes",
                   static_cast<int64_t>(opts.durable.segment_bytes)));
  opts.durable.checkpoint_interval_items =
      static_cast<uint64_t>(flags.GetInt("checkpoint-interval", 0));
  if (!opts.durable.wal_dir.empty() && !checkpoint.empty()) {
    // The WAL directory owns recovery end to end; a side checkpoint file
    // restored over the replayed state would fork history.
    std::fprintf(stderr,
                 "qf_server: --wal-dir supersedes --checkpoint=%s "
                 "(ignoring the file)\n",
                 checkpoint.c_str());
    checkpoint.clear();
  }
  obs::MetricsSink::Options sink_opts;
  sink_opts.jsonl_path = flags.GetString("metrics-jsonl", "");
  sink_opts.prom_path = flags.GetString("metrics-prom", "");
  sink_opts.interval_ms =
      static_cast<int>(flags.GetInt("metrics-interval-ms", 1000));
  const std::string trace_json = flags.GetString("trace-json", "");

  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    std::fprintf(stderr, "qf_server: unknown flag --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }

  net::QfServer server(opts);

  if (!checkpoint.empty()) {
    std::vector<uint8_t> blob;
    if (ReadFile(checkpoint, &blob)) {
      if (!server.RestoreCheckpoint(blob)) {
        std::fprintf(stderr,
                     "qf_server: checkpoint %s rejected (geometry/CRC)\n",
                     checkpoint.c_str());
        return 1;
      }
      std::fprintf(stderr, "qf_server: restored checkpoint %s (%zu bytes)\n",
                   checkpoint.c_str(), blob.size());
    }
  }

  if (!server.Start()) {
    std::fprintf(stderr, "qf_server: %s\n", server.error().c_str());
    return 1;
  }
  if (server.recovery().durable) {
    const auto& rec = server.recovery();
    // serve_smoke.sh greps this banner after a kill -9 restart.
    std::printf(
        "qf_server: recovered: replayed %llu records (%llu items), "
        "%llu segments scanned, checkpoint %s, %llu torn truncation%s\n",
        static_cast<unsigned long long>(rec.replayed_records),
        static_cast<unsigned long long>(rec.replayed_items),
        static_cast<unsigned long long>(rec.segments_scanned),
        rec.had_checkpoint ? "restored" : "none",
        static_cast<unsigned long long>(rec.torn_truncations),
        rec.torn_truncations == 1 ? "" : "s");
    if (!rec.warning.empty()) {
      std::fprintf(stderr, "qf_server: recovery warning: %s\n",
                   rec.warning.c_str());
    }
  }
  std::printf(
      "qf_server: listening on %s:%u (%d shards, %d reactor%s%s, %zu-byte "
      "budget, %s vague layout)\n",
      opts.host.c_str(), server.port(), opts.num_shards, server.reactors(),
      server.reactors() == 1 ? "" : "s",
      opts.placement.pin_threads ? ", pinned" : "", opts.filter.memory_bytes,
      VagueLayoutName(opts.filter.vague_layout));
  std::fflush(stdout);

  obs::MetricsSink sink(obs::MetricsRegistry::Global(), sink_opts);
  if (!sink_opts.jsonl_path.empty() || !sink_opts.prom_path.empty()) {
    sink.Start();
  }
  if (!trace_json.empty()) obs::TraceRing::Global().Enable();

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Serve until a protocol shutdown stops the loop or a signal arrives.
  while (server.running() && g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  sink.Stop();
  if (!trace_json.empty()) {
    // Stop() joined reactors and workers, so the ring is quiescent (the
    // dump contract in trace_ring.h).
    obs::TraceRing::Global().Disable();
    if (obs::TraceRing::Global().DumpChromeJson(trace_json)) {
      std::fprintf(stderr, "qf_server: wrote trace %s (%zu spans)\n",
                   trace_json.c_str(),
                   obs::TraceRing::Global().CountEntries());
    } else {
      std::fprintf(stderr, "qf_server: failed to write trace %s\n",
                   trace_json.c_str());
    }
  }

  if (!checkpoint.empty()) {
    const std::vector<uint8_t> blob = server.filter().SerializeState();
    if (!WriteFile(checkpoint, blob)) {
      std::fprintf(stderr, "qf_server: failed to write checkpoint %s\n",
                   checkpoint.c_str());
      return 1;
    }
    std::fprintf(stderr, "qf_server: wrote checkpoint %s (%zu bytes)\n",
                 checkpoint.c_str(), blob.size());
  }
  const net::WireStats stats = server.StatsSnapshot();
  std::printf(
      "qf_server: done — %llu items ingested, %llu reports, %llu alerts "
      "streamed (%llu dropped), %llu connections\n",
      static_cast<unsigned long long>(stats.items_ingested),
      static_cast<unsigned long long>(stats.reports),
      static_cast<unsigned long long>(stats.alerts_streamed),
      static_cast<unsigned long long>(stats.alerts_dropped),
      static_cast<unsigned long long>(stats.accepts));
  return 0;
}

}  // namespace
}  // namespace qf

int main(int argc, char** argv) { return qf::Main(argc, argv); }
