// qf_top — terminal viewer for QuantileFilter metrics, from a snapshot file
// or attached to a live server.
//
// Modes:
//   qf_top --file=metrics.jsonl [--interval-ms=N]
//       Follow mode (default): polls the JSONL file, renders the newest
//       snapshot as a live table and derives per-second rates from the
//       monotonic timestamps of consecutive snapshots. Ctrl-C to exit.
//   qf_top --file=metrics.jsonl --once
//       Renders the newest snapshot once and exits (no rates).
//   qf_top --connect=host:port [--once] [--interval-ms=N]
//       Live mode (DESIGN.md §15): attaches to a running qf_server (or a
//       qf_cluster coordinator) and polls CONTROL kMetrics
//       (QfClient::FetchMetrics): the process registry — per-stage
//       qf_stage_* latency histograms among it — plus the server's own
//       series (qf_server_*, the qf_net_* connection counters and the
//       qf_durable_* log/checkpoint progress).
//   qf_top --check-prom=metrics.prom
//       Validates a Prometheus text-exposition file (HELP/TYPE and sample
//       syntax) and prints a family/sample summary. Exit 0 iff valid and
//       non-empty — CI's metrics-smoke job gates on this.
//
// Attach to a benchmark with e.g.
//   throughput_batch_mt --metrics-json=/tmp/qf.jsonl &
//   qf_top --file=/tmp/qf.jsonl

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "net/client.h"
#include "obs/export.h"
#include "obs/registry.h"

namespace qf::obs {
namespace {

/// Last non-empty line of `path`; empty string if empty. `*readable`
/// distinguishes a missing/unopenable feed from a present-but-empty one —
/// --once reports them differently (exit 2 vs 1).
std::string ReadLastLine(const std::string& path, bool* readable) {
  std::ifstream in(path);
  *readable = static_cast<bool>(in);
  if (!in) return {};
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

struct Parsed {
  uint64_t ts_ns = 0;
  uint64_t mono_ns = 0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  // name -> {count, sum, max, mean, p0.5, ...}
  std::map<std::string, std::map<std::string, double>> histograms;
};

/// Converts a wire-fetched registry snapshot into the same shape the JSONL
/// parser produces, deriving the summary fields RenderJsonLine would have
/// written (count/sum/max/mean plus the export quantiles).
Parsed FromWireSnapshot(const MetricsSnapshot& snap) {
  Parsed out;
  out.ts_ns = snap.wall_ns;
  out.mono_ns = snap.mono_ns;
  for (const CounterSample& c : snap.counters) {
    out.counters[c.name] = static_cast<double>(c.value);
  }
  for (const GaugeSample& g : snap.gauges) {
    out.gauges[g.name] = static_cast<double>(g.value);
  }
  for (const HistogramSample& h : snap.histograms) {
    auto& dst = out.histograms[h.name];
    dst["count"] = static_cast<double>(h.data.count());
    dst["sum"] = static_cast<double>(h.data.sum());
    dst["max"] = static_cast<double>(h.data.max());
    dst["mean"] = h.data.Mean();
    dst["p0.5"] = static_cast<double>(h.data.Quantile(0.5));
    dst["p0.9"] = static_cast<double>(h.data.Quantile(0.9));
    dst["p0.99"] = static_cast<double>(h.data.Quantile(0.99));
    dst["p0.999"] = static_cast<double>(h.data.Quantile(0.999));
  }
  return out;
}

bool ParseSnapshotLine(const std::string& line, Parsed* out,
                       std::string* error) {
  JsonValue doc;
  if (!ParseJson(line, &doc, error)) return false;
  if (doc.kind != JsonValue::Kind::kObject) {
    *error = "snapshot line is not a JSON object";
    return false;
  }
  if (const JsonValue* v = doc.Get("ts_ns")) {
    out->ts_ns = static_cast<uint64_t>(v->NumberOr(0));
  }
  if (const JsonValue* v = doc.Get("mono_ns")) {
    out->mono_ns = static_cast<uint64_t>(v->NumberOr(0));
  }
  if (const JsonValue* c = doc.Get("counters")) {
    for (const auto& [name, val] : c->object) {
      out->counters[name] = val->NumberOr(0);
    }
  }
  if (const JsonValue* g = doc.Get("gauges")) {
    for (const auto& [name, val] : g->object) {
      out->gauges[name] = val->NumberOr(0);
    }
  }
  if (const JsonValue* h = doc.Get("histograms")) {
    for (const auto& [name, fields] : h->object) {
      if (fields->kind != JsonValue::Kind::kObject) continue;
      auto& dst = out->histograms[name];
      for (const auto& [field, val] : fields->object) {
        dst[field] = val->NumberOr(0);
      }
    }
  }
  // A JSON object that carries none of the snapshot sections is some other
  // document, not a MetricsSink line; rendering it would silently produce
  // an empty dashboard.
  if (doc.Get("counters") == nullptr && doc.Get("gauges") == nullptr &&
      doc.Get("histograms") == nullptr) {
    *error =
        "JSON object is not a metrics snapshot (no counters/gauges/"
        "histograms sections)";
    return false;
  }
  return true;
}

/// 12345678 -> "12.3M" — keeps wide counters readable in the table.
std::string Human(double v) {
  char buf[32];
  const double a = v < 0 ? -v : v;
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (a >= 1e4) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

double HistField(const std::map<std::string, double>& h, const char* key) {
  auto it = h.find(key);
  return it == h.end() ? 0.0 : it->second;
}

void Render(const Parsed& snap, const Parsed* prev, const std::string& path,
            bool clear_screen) {
  if (clear_screen) std::printf("\x1b[2J\x1b[H");
  const std::time_t secs = static_cast<std::time_t>(snap.ts_ns / 1000000000);
  char when[32] = "-";
  if (secs > 0) {
    std::strftime(when, sizeof(when), "%H:%M:%S", std::localtime(&secs));
  }
  std::printf("qf_top — %s  (snapshot at %s)\n\n", path.c_str(), when);

  const double dt =
      (prev != nullptr && snap.mono_ns > prev->mono_ns)
          ? static_cast<double>(snap.mono_ns - prev->mono_ns) / 1e9
          : 0.0;
  std::printf("%-44s %12s %10s\n", "COUNTER", "value", "rate/s");
  for (const auto& [name, value] : snap.counters) {
    std::string rate = "-";
    if (dt > 0.0 && prev != nullptr) {
      auto it = prev->counters.find(name);
      if (it != prev->counters.end() && value >= it->second) {
        rate = Human((value - it->second) / dt);
      }
    }
    std::printf("%-44s %12s %10s\n", name.c_str(), Human(value).c_str(),
                rate.c_str());
  }
  if (!snap.gauges.empty()) {
    std::printf("\n%-44s %12s\n", "GAUGE", "value");
    for (const auto& [name, value] : snap.gauges) {
      std::printf("%-44s %12s\n", name.c_str(), Human(value).c_str());
    }
  }
  if (!snap.histograms.empty()) {
    std::printf("\n%-44s %9s %9s %9s %9s %9s %9s\n", "HISTOGRAM", "count",
                "mean", "p50", "p99", "p99.9", "max");
    for (const auto& [name, h] : snap.histograms) {
      std::printf("%-44s %9s %9s %9s %9s %9s %9s\n", name.c_str(),
                  Human(HistField(h, "count")).c_str(),
                  Human(HistField(h, "mean")).c_str(),
                  Human(HistField(h, "p0.5")).c_str(),
                  Human(HistField(h, "p0.99")).c_str(),
                  Human(HistField(h, "p0.999")).c_str(),
                  Human(HistField(h, "max")).c_str());
    }
  }
  std::fflush(stdout);
}

/// Live-server mode: poll CONTROL kMetrics over one connection.
int ConnectMain(const std::string& endpoint, bool once, int interval_ms) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    std::fprintf(stderr, "qf_top: --connect expects host:port, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "qf_top: bad port in %s\n", endpoint.c_str());
    return 2;
  }
  qf::net::QfClient client;
  if (!client.Connect(host, static_cast<uint16_t>(port))) {
    std::fprintf(stderr, "qf_top: cannot connect to %s: %s\n",
                 endpoint.c_str(), client.error().c_str());
    return 2;
  }
  Parsed prev;
  bool have_prev = false;
  for (;;) {
    MetricsSnapshot snap;
    if (!client.FetchMetrics(&snap)) {
      std::fprintf(stderr, "qf_top: FetchMetrics failed: %s\n",
                   client.error().c_str());
      return 1;
    }
    Parsed parsed = FromWireSnapshot(snap);
    Render(parsed, have_prev ? &prev : nullptr, endpoint, !once);
    prev = std::move(parsed);
    have_prev = true;
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int CheckProm(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const PromValidation v = ValidatePrometheusText(text.str());
  if (!v.ok) {
    std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(), v.error.c_str());
    return 1;
  }
  if (v.samples == 0) {
    std::fprintf(stderr, "INVALID %s: no samples\n", path.c_str());
    return 1;
  }
  std::printf("ok %s: %zu families, %zu samples\n", path.c_str(), v.families,
              v.samples);
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string check_prom = flags.GetString("check-prom", "");
  const std::string file = flags.GetString("file", "");
  const std::string connect = flags.GetString("connect", "");
  const bool once = flags.GetBool("once", false);
  const int interval_ms =
      static_cast<int>(flags.GetInt("interval-ms", 1000));
  const auto unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    for (const std::string& f : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    }
    return 2;
  }
  if (!check_prom.empty()) return CheckProm(check_prom);
  if (!connect.empty()) return ConnectMain(connect, once, interval_ms);
  if (file.empty()) {
    std::fprintf(stderr,
                 "usage: qf_top --file=metrics.jsonl [--once] "
                 "[--interval-ms=N] | qf_top --connect=host:port [--once] "
                 "| qf_top --check-prom=metrics.prom\n");
    return 2;
  }

  Parsed prev;
  bool have_prev = false;
  for (;;) {
    bool readable = false;
    const std::string line = ReadLastLine(file, &readable);
    if (!readable) {
      if (once) {
        std::fprintf(stderr, "qf_top: cannot read %s (missing feed?)\n",
                     file.c_str());
        return 2;
      }
      // Follow mode: the producer may not have created the file yet.
    } else if (line.empty()) {
      if (once) {
        std::fprintf(stderr, "qf_top: %s has no snapshot lines yet\n",
                     file.c_str());
        return 1;
      }
      // Follow mode: the producer may not have written yet; keep polling.
    } else {
      Parsed snap;
      std::string error;
      if (!ParseSnapshotLine(line, &snap, &error)) {
        // A torn tail line (writer mid-append) parses on the next poll.
        if (once) {
          std::fprintf(stderr, "qf_top: malformed snapshot in %s: %s\n",
                       file.c_str(), error.c_str());
          return 1;
        }
      } else {
        Render(snap, have_prev ? &prev : nullptr, file, !once);
        prev = std::move(snap);
        have_prev = true;
        if (once) return 0;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace
}  // namespace qf::obs

int main(int argc, char** argv) { return qf::obs::Main(argc, argv); }
