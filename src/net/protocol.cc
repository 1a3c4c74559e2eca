#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "common/serialize.h"
#include "common/time.h"

namespace qf::net {

static_assert(sizeof(Item) == 16,
              "Item is memcpy'd to the wire; layout must be {u64, f64}");

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kIngest: return "ingest";
    case FrameType::kQuery: return "query";
    case FrameType::kSubscribe: return "subscribe";
    case FrameType::kControl: return "control";
    case FrameType::kIngestAck: return "ingest_ack";
    case FrameType::kQueryResult: return "query_result";
    case FrameType::kAlert: return "alert";
    case FrameType::kControlResult: return "control_result";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

namespace {

void AppendRaw(const void* data, size_t size, std::vector<uint8_t>* out) {
  if (size == 0) return;  // empty spans may carry a null data()
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + size);
}

template <typename T>
void AppendValue(const T& value, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendRaw(&value, sizeof(T), out);
}

/// Reserves room for `extra` more bytes, at least doubling the capacity when
/// it grows. An exact reserve would defeat the vector's geometric growth, so
/// every frame appended to a shared buffer (a connection's write queue, a
/// subscriber's alert batch) would copy the whole buffer again.
void ReserveMore(size_t extra, std::vector<uint8_t>* out) {
  const size_t need = out->size() + extra;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
}

/// Appends the length prefix and frame header of a frame whose payload is
/// `payload_bytes` long; the caller appends exactly that many bytes next.
void AppendFrameHeader(FrameType type, size_t payload_bytes,
                       std::vector<uint8_t>* out) {
  const uint32_t length =
      static_cast<uint32_t>(kFrameHeaderBytes + payload_bytes);
  ReserveMore(4 + static_cast<size_t>(length), out);
  AppendValue(length, out);
  AppendValue(kProtocolVersion, out);
  AppendValue(static_cast<uint8_t>(type), out);
  AppendValue(static_cast<uint16_t>(0), out);  // reserved
}

}  // namespace

void AppendFrameTo(FrameType type, std::span<const uint8_t> payload,
                   std::vector<uint8_t>* out) {
  AppendFrameHeader(type, payload.size(), out);
  AppendRaw(payload.data(), payload.size(), out);
}

void EncodeIngestTo(uint64_t token, std::span<const Item> items,
                    std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kIngest, 12 + items.size() * sizeof(Item),
                    out);
  AppendValue(token, out);
  AppendValue(static_cast<uint32_t>(items.size()), out);
  AppendRaw(items.data(), items.size() * sizeof(Item), out);
}

void EncodeIngestAckTo(uint64_t token, uint32_t count, uint64_t total_items,
                       std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kIngestAck, 20, out);
  AppendValue(token, out);
  AppendValue(count, out);
  AppendValue(total_items, out);
}

void EncodeQueryTo(uint64_t token, std::span<const uint64_t> keys,
                   std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kQuery, 12 + keys.size() * 8, out);
  AppendValue(token, out);
  AppendValue(static_cast<uint32_t>(keys.size()), out);
  AppendRaw(keys.data(), keys.size() * 8, out);
}

void EncodeQueryResultTo(uint64_t token,
                         std::span<const QueryAnswer> answers,
                         std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kQueryResult, 12 + answers.size() * 9, out);
  AppendValue(token, out);
  AppendValue(static_cast<uint32_t>(answers.size()), out);
  for (const QueryAnswer& a : answers) {
    AppendValue(a.qweight, out);  // answers are packed 9-byte records
    AppendValue(a.is_candidate, out);
  }
}

void EncodeSubscribeTo(uint64_t token, bool enable,
                       std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kSubscribe, 9, out);
  AppendValue(token, out);
  AppendValue(static_cast<uint8_t>(enable ? 1 : 0), out);
}

void EncodeControlTo(uint64_t token, ControlOp op,
                     std::span<const uint8_t> op_payload,
                     std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kControl, 9 + op_payload.size(), out);
  AppendValue(token, out);
  AppendValue(static_cast<uint8_t>(op), out);
  AppendRaw(op_payload.data(), op_payload.size(), out);
}

void EncodeControlResultTo(uint64_t token, ControlOp op, ControlStatus status,
                           std::span<const uint8_t> payload,
                           std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kControlResult, 10 + payload.size(), out);
  AppendValue(token, out);
  AppendValue(static_cast<uint8_t>(op), out);
  AppendValue(static_cast<uint8_t>(status), out);
  AppendRaw(payload.data(), payload.size(), out);
}

void EncodeAlertTo(const WireAlert& alert, std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kAlert, sizeof(WireAlert), out);
  AppendValue(alert, out);
}

void EncodeErrorTo(ErrorCode code, std::string_view message,
                   std::vector<uint8_t>* out) {
  if (message.size() > 1024) message = message.substr(0, 1024);
  AppendFrameHeader(FrameType::kError, 6 + message.size(), out);
  AppendValue(static_cast<uint32_t>(code), out);
  AppendValue(static_cast<uint16_t>(message.size()), out);
  AppendRaw(message.data(), message.size(), out);
}

// ---------------------------------------------------------------------------

bool ParseIngest(std::span<const uint8_t> payload, IngestRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint32_t count = 0;
  if (!reader.Read(&token) || !reader.Read(&count)) return false;
  if (reader.remaining() != static_cast<size_t>(count) * sizeof(Item)) {
    return false;  // exact-size contract: no trailing garbage
  }
  out->token = token;
  out->items.clear();
  out->items.resize(count);
  if (count > 0) {
    std::memcpy(out->items.data(), payload.data() + 12,
                static_cast<size_t>(count) * sizeof(Item));
  }
  return true;
}

bool ParseIngestAck(std::span<const uint8_t> payload, IngestAck* out) {
  ByteReader reader(payload.data(), payload.size());
  IngestAck ack;
  if (!reader.Read(&ack.token) || !reader.Read(&ack.count) ||
      !reader.Read(&ack.total_items) || reader.remaining() != 0) {
    return false;
  }
  *out = ack;
  return true;
}

bool ParseQuery(std::span<const uint8_t> payload, QueryRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint32_t count = 0;
  if (!reader.Read(&token) || !reader.Read(&count)) return false;
  if (reader.remaining() != static_cast<size_t>(count) * 8) return false;
  out->token = token;
  out->keys.clear();
  out->keys.resize(count);
  if (count > 0) {
    std::memcpy(out->keys.data(), payload.data() + 12,
                static_cast<size_t>(count) * 8);
  }
  return true;
}

bool ParseQueryResult(std::span<const uint8_t> payload, QueryResult* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint32_t count = 0;
  if (!reader.Read(&token) || !reader.Read(&count)) return false;
  if (reader.remaining() != static_cast<size_t>(count) * 9) return false;
  out->token = token;
  out->answers.clear();
  out->answers.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryAnswer& a = out->answers[i];
    if (!reader.Read(&a.qweight) || !reader.Read(&a.is_candidate)) {
      return false;
    }
  }
  return true;
}

bool ParseSubscribe(std::span<const uint8_t> payload, SubscribeRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint8_t enable = 0;
  if (!reader.Read(&token) || !reader.Read(&enable) ||
      reader.remaining() != 0 || enable > 1) {
    return false;
  }
  out->token = token;
  out->enable = enable != 0;
  return true;
}

bool ParseControl(std::span<const uint8_t> payload, ControlRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint8_t op = 0;
  if (!reader.Read(&token) || !reader.Read(&op)) return false;
  if (op < kMinControlOp || op > kMaxControlOp) return false;
  out->token = token;
  out->op = static_cast<ControlOp>(op);
  out->op_payload.assign(payload.begin() + 9, payload.end());
  return true;
}

bool ParseControlResult(std::span<const uint8_t> payload, ControlResult* out) {
  ByteReader reader(payload.data(), payload.size());
  uint64_t token = 0;
  uint8_t op = 0, status = 0;
  if (!reader.Read(&token) || !reader.Read(&op) || !reader.Read(&status)) {
    return false;
  }
  if (op < kMinControlOp || op > kMaxControlOp) return false;
  out->token = token;
  out->op = static_cast<ControlOp>(op);
  out->status = static_cast<ControlStatus>(status);
  out->payload.assign(payload.begin() + 10, payload.end());
  return true;
}

bool ParseAlert(std::span<const uint8_t> payload, WireAlert* out) {
  if (payload.size() != sizeof(WireAlert)) return false;
  std::memcpy(out, payload.data(), sizeof(WireAlert));
  return true;
}

namespace {

/// The name (and help) of each WireStats field's series.
struct StatsSeries {
  const char* name;
  const char* help;
  uint64_t WireStats::*field;
  bool client_plane = false;  // a connection series (OverlayClientPlane)
};
constexpr StatsSeries kStatsSeries[] = {
    {"qf_server_items_ingested_total",
     "items accepted from INGEST frames and boot replay",
     &WireStats::items_ingested},
    {"qf_server_items_processed_total", "items drained by pipeline workers",
     &WireStats::items_processed},
    {"qf_server_reports_total", "outstanding-key reports across shards",
     &WireStats::reports},
    {"qf_server_alerts_dropped_total", "alert-ring overflows",
     &WireStats::alerts_dropped},
    {"qf_net_alerts_streamed_total", "ALERT frames queued to subscribers",
     &WireStats::alerts_streamed},
    {"qf_net_accepts_total", "connections accepted", &WireStats::accepts,
     true},
    {"qf_net_disconnects_total", "connections closed",
     &WireStats::disconnects, true},
    {"qf_net_slow_disconnects_total",
     "connections dropped over the write-queue cap",
     &WireStats::slow_disconnects, true},
    {"qf_durable_records_appended_total",
     "ingest batches appended to the WAL", &WireStats::wal_records_appended},
    {"qf_durable_records_replayed_total",
     "WAL records re-driven through the pipeline at boot",
     &WireStats::wal_records_replayed},
    {"qf_durable_torn_truncations_total",
     "torn trailing WAL frames truncated during recovery",
     &WireStats::wal_torn_truncations},
    {"qf_durable_segments_written_total", "WAL segment files opened",
     &WireStats::wal_segments_written},
    {"qf_durable_checkpoints_written_total", "checkpoints written",
     &WireStats::wal_checkpoints_written},
};
constexpr StatsSeries kActiveConnections = {
    "qf_net_active_connections", "open connections",
    &WireStats::active_connections};

}  // namespace

obs::MetricsSnapshot WireStatsToMetrics(const WireStats& stats) {
  obs::MetricsSnapshot snap;
  snap.wall_ns = WallNanos();
  snap.mono_ns = MonotonicNanos();
  for (const StatsSeries& s : kStatsSeries) {
    snap.counters.push_back({s.name, s.help, stats.*s.field});
  }
  snap.gauges.push_back(
      {kActiveConnections.name, kActiveConnections.help,
       static_cast<int64_t>(stats.*kActiveConnections.field)});
  return snap;
}

bool WireStatsFromMetrics(const obs::MetricsSnapshot& snap, WireStats* out,
                          std::string* error) {
  const auto missing = [error](const char* name) {
    if (error != nullptr) {
      *error = std::string("stats series missing or invalid: ") + name;
    }
    return false;
  };
  WireStats stats;
  for (const StatsSeries& s : kStatsSeries) {
    const obs::CounterSample* c = obs::FindSample(snap.counters, s.name);
    if (c == nullptr) return missing(s.name);
    stats.*s.field = c->value;
  }
  const obs::GaugeSample* g =
      obs::FindSample(snap.gauges, kActiveConnections.name);
  if (g == nullptr || g->value < 0) return missing(kActiveConnections.name);
  stats.*kActiveConnections.field = static_cast<uint64_t>(g->value);
  *out = stats;
  return true;
}

void OverlayClientPlane(const WireStats& stats, obs::MetricsSnapshot* snap) {
  const auto put = [](auto& samples, const StatsSeries& s, auto value) {
    auto* sample = obs::FindSample(samples, s.name);
    if (sample == nullptr) {
      sample = &samples.emplace_back();
      sample->name = s.name;
      sample->help = s.help;
    }
    sample->value = value;
  };
  for (const StatsSeries& s : kStatsSeries) {
    if (s.client_plane) put(snap->counters, s, stats.*s.field);
  }
  put(snap->gauges, kActiveConnections,
      static_cast<int64_t>(stats.*kActiveConnections.field));
}

namespace {

void AppendName(const std::string& name, std::vector<uint8_t>* out) {
  // Oversized names are a registry bug, not wire data; truncate rather than
  // emit a payload our own parser rejects.
  const size_t len =
      name.size() < kMetricsMaxNameLen ? name.size() : kMetricsMaxNameLen;
  AppendValue(static_cast<uint16_t>(len), out);
  AppendRaw(name.data(), len, out);
}

bool ReadName(ByteReader* reader, std::span<const uint8_t> payload,
              std::string* out) {
  uint16_t len = 0;
  if (!reader->Read(&len)) return false;
  if (len < 1 || len > kMetricsMaxNameLen) return false;
  const size_t start = payload.size() - reader->remaining();
  if (!reader->Skip(len)) return false;
  out->assign(reinterpret_cast<const char*>(payload.data()) + start, len);
  return true;
}

}  // namespace

void EncodeMetricsPayloadTo(const obs::MetricsSnapshot& snap,
                            std::vector<uint8_t>* out) {
  AppendValue(kMetricsPayloadMagic, out);
  AppendValue(kMetricsPayloadVersion, out);
  AppendValue(static_cast<uint16_t>(0), out);  // reserved
  AppendValue(snap.wall_ns, out);
  AppendValue(snap.mono_ns, out);
  AppendValue(static_cast<uint32_t>(snap.counters.size()), out);
  AppendValue(static_cast<uint32_t>(snap.gauges.size()), out);
  AppendValue(static_cast<uint32_t>(snap.histograms.size()), out);
  for (const obs::CounterSample& c : snap.counters) {
    AppendName(c.name, out);
    AppendValue(c.value, out);
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    AppendName(g.name, out);
    AppendValue(g.value, out);
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    AppendName(h.name, out);
    AppendValue(h.data.count(), out);
    AppendValue(h.data.sum(), out);
    AppendValue(h.data.max(), out);
    uint32_t nonzero = 0;
    for (size_t i = 0; i < obs::HistogramLayout::kNumBuckets; ++i) {
      if (h.data.bucket(i) != 0) ++nonzero;
    }
    AppendValue(nonzero, out);
    for (size_t i = 0; i < obs::HistogramLayout::kNumBuckets; ++i) {
      const uint64_t c = h.data.bucket(i);
      if (c == 0) continue;
      AppendValue(static_cast<uint32_t>(i), out);
      AppendValue(c, out);
    }
  }
}

bool ParseMetricsPayload(std::span<const uint8_t> payload,
                         obs::MetricsSnapshot* out) {
  ByteReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  uint16_t version = 0, reserved = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&reserved)) {
    return false;
  }
  if (magic != kMetricsPayloadMagic || version != kMetricsPayloadVersion ||
      reserved != 0) {
    return false;
  }
  obs::MetricsSnapshot snap;
  uint32_t n_counters = 0, n_gauges = 0, n_histograms = 0;
  if (!reader.Read(&snap.wall_ns) || !reader.Read(&snap.mono_ns) ||
      !reader.Read(&n_counters) || !reader.Read(&n_gauges) ||
      !reader.Read(&n_histograms)) {
    return false;
  }
  // Each record is >= 11 bytes; bound the reserves by the payload size so a
  // forged count cannot force a huge allocation before the reads fail.
  if (static_cast<size_t>(n_counters) * 11 > payload.size() ||
      static_cast<size_t>(n_gauges) * 11 > payload.size() ||
      static_cast<size_t>(n_histograms) * 31 > payload.size()) {
    return false;
  }
  snap.counters.resize(n_counters);
  for (obs::CounterSample& c : snap.counters) {
    if (!ReadName(&reader, payload, &c.name) ||
        !reader.Read(&c.value)) {
      return false;
    }
  }
  snap.gauges.resize(n_gauges);
  for (obs::GaugeSample& g : snap.gauges) {
    if (!ReadName(&reader, payload, &g.name) ||
        !reader.Read(&g.value)) {
      return false;
    }
  }
  snap.histograms.resize(n_histograms);
  for (obs::HistogramSample& h : snap.histograms) {
    uint64_t count = 0, sum = 0, max = 0;
    uint32_t n_buckets = 0;
    if (!ReadName(&reader, payload, &h.name) ||
        !reader.Read(&count) || !reader.Read(&sum) || !reader.Read(&max) ||
        !reader.Read(&n_buckets)) {
      return false;
    }
    if (n_buckets > obs::HistogramLayout::kNumBuckets) return false;
    uint64_t prev_index = 0;
    bool first = true;
    for (uint32_t b = 0; b < n_buckets; ++b) {
      uint32_t index = 0;
      uint64_t bucket_count = 0;
      if (!reader.Read(&index) || !reader.Read(&bucket_count)) return false;
      // Canonical form: strictly increasing in-range indices, no zero runs.
      if (index >= obs::HistogramLayout::kNumBuckets) return false;
      if (!first && index <= prev_index) return false;
      if (bucket_count == 0) return false;
      h.data.AddBucket(index, bucket_count);
      prev_index = index;
      first = false;
    }
    h.data.AddTotals(count, sum, max);
  }
  if (reader.remaining() != 0) return false;  // exact-size contract
  *out = std::move(snap);
  return true;
}

// ---------------------------------------------------------------------------
// Cluster CONTROL payloads (DESIGN.md §16).

void EncodeTopologyPayloadTo(const WireTopology& topo,
                             std::vector<uint8_t>* out) {
  AppendValue(kTopologyPayloadMagic, out);
  AppendValue(kTopologyPayloadVersion, out);
  AppendValue(static_cast<uint16_t>(0), out);  // reserved
  AppendValue(topo.epoch, out);
  AppendValue(static_cast<uint32_t>(topo.owner.size()), out);
  AppendValue(static_cast<uint32_t>(topo.backends.size()), out);
  for (const WireBackend& b : topo.backends) {
    const size_t len = b.addr.size() < kTopologyMaxAddrLen
                           ? b.addr.size()
                           : kTopologyMaxAddrLen;
    AppendValue(static_cast<uint16_t>(len), out);
    AppendRaw(b.addr.data(), len, out);
    AppendValue(static_cast<uint8_t>(b.state), out);
  }
  AppendRaw(topo.owner.data(), topo.owner.size() * 4, out);
}

bool ParseTopologyPayload(std::span<const uint8_t> payload,
                          WireTopology* out) {
  ByteReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  uint16_t version = 0, reserved = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&reserved)) {
    return false;
  }
  if (magic != kTopologyPayloadMagic ||
      version != kTopologyPayloadVersion || reserved != 0) {
    return false;
  }
  WireTopology topo;
  uint32_t num_slots = 0, num_backends = 0;
  if (!reader.Read(&topo.epoch) || !reader.Read(&num_slots) ||
      !reader.Read(&num_backends)) {
    return false;
  }
  if (num_slots > kTopologyMaxSlots || num_backends > kTopologyMaxBackends) {
    return false;
  }
  // A backend record is >= 4 bytes, an owner entry exactly 4; bound forged
  // counts against the payload size before any allocation.
  if (static_cast<size_t>(num_backends) * 4 > payload.size() ||
      static_cast<size_t>(num_slots) * 4 > payload.size()) {
    return false;
  }
  topo.backends.resize(num_backends);
  for (WireBackend& b : topo.backends) {
    uint16_t len = 0;
    if (!reader.Read(&len)) return false;
    if (len < 1 || len > kTopologyMaxAddrLen) return false;
    const size_t start = payload.size() - reader.remaining();
    if (!reader.Skip(len)) return false;
    b.addr.assign(reinterpret_cast<const char*>(payload.data()) + start, len);
    uint8_t state = 0;
    if (!reader.Read(&state)) return false;
    if (state > static_cast<uint8_t>(BackendState::kReady)) return false;
    b.state = static_cast<BackendState>(state);
  }
  if (reader.remaining() != static_cast<size_t>(num_slots) * 4) return false;
  topo.owner.resize(num_slots);
  for (uint32_t& owner : topo.owner) {
    if (!reader.Read(&owner)) return false;
    if (owner >= num_backends) return false;
  }
  *out = std::move(topo);
  return true;
}

void EncodeMigratePayloadTo(const MigrateRequest& req,
                            std::vector<uint8_t>* out) {
  AppendValue(req.slot, out);
  AppendValue(req.target_backend, out);
}

bool ParseMigratePayload(std::span<const uint8_t> payload,
                         MigrateRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  MigrateRequest req;
  if (!reader.Read(&req.slot) || !reader.Read(&req.target_backend) ||
      reader.remaining() != 0) {
    return false;
  }
  *out = req;
  return true;
}

void EncodeShardExportRequestTo(const ShardExportRequest& req,
                                std::vector<uint8_t>* out) {
  AppendValue(req.shard, out);
}

bool ParseShardExportRequest(std::span<const uint8_t> payload,
                             ShardExportRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  ShardExportRequest req;
  if (!reader.Read(&req.shard) || reader.remaining() != 0) return false;
  *out = req;
  return true;
}

void EncodeShardExportPayloadTo(const ShardExport& exp,
                                std::vector<uint8_t>* out) {
  AppendValue(exp.shard, out);
  AppendValue(exp.wal_enabled, out);
  AppendValue(static_cast<uint8_t>(0), out);
  AppendValue(static_cast<uint16_t>(0), out);  // pad to 8
  AppendValue(exp.wal_gen, out);
  AppendValue(exp.snap_seq, out);
  for (const uint64_t word : exp.rng) AppendValue(word, out);
  AppendValue(static_cast<uint32_t>(exp.blob.size()), out);
  AppendRaw(exp.blob.data(), exp.blob.size(), out);
}

bool ParseShardExportPayload(std::span<const uint8_t> payload,
                             ShardExport* out) {
  ByteReader reader(payload.data(), payload.size());
  ShardExport exp;
  uint8_t pad1 = 0;
  uint16_t pad2 = 0;
  if (!reader.Read(&exp.shard) || !reader.Read(&exp.wal_enabled) ||
      !reader.Read(&pad1) || !reader.Read(&pad2)) {
    return false;
  }
  if (exp.wal_enabled > 1 || pad1 != 0 || pad2 != 0) return false;
  if (!reader.Read(&exp.wal_gen) || !reader.Read(&exp.snap_seq)) return false;
  for (uint64_t& word : exp.rng) {
    if (!reader.Read(&word)) return false;
  }
  uint32_t blob_len = 0;
  if (!reader.Read(&blob_len)) return false;
  if (reader.remaining() != blob_len) return false;  // exact-size contract
  const size_t start = payload.size() - reader.remaining();
  exp.blob.assign(payload.begin() + static_cast<ptrdiff_t>(start),
                  payload.end());
  *out = std::move(exp);
  return true;
}

void EncodeShardImportPayloadTo(const ShardImport& imp,
                                std::vector<uint8_t>* out) {
  AppendValue(imp.shard, out);
  AppendValue(static_cast<uint32_t>(0), out);  // reserved
  for (const uint64_t word : imp.rng) AppendValue(word, out);
  AppendValue(static_cast<uint32_t>(imp.blob.size()), out);
  AppendRaw(imp.blob.data(), imp.blob.size(), out);
}

bool ParseShardImportPayload(std::span<const uint8_t> payload,
                             ShardImport* out) {
  ByteReader reader(payload.data(), payload.size());
  ShardImport imp;
  uint32_t reserved = 0;
  if (!reader.Read(&imp.shard) || !reader.Read(&reserved)) return false;
  if (reserved != 0) return false;
  for (uint64_t& word : imp.rng) {
    if (!reader.Read(&word)) return false;
  }
  uint32_t blob_len = 0;
  if (!reader.Read(&blob_len)) return false;
  if (reader.remaining() != blob_len) return false;
  const size_t start = payload.size() - reader.remaining();
  imp.blob.assign(payload.begin() + static_cast<ptrdiff_t>(start),
                  payload.end());
  *out = std::move(imp);
  return true;
}

void EncodeShardActivateRequestTo(const ShardActivateRequest& req,
                                  std::vector<uint8_t>* out) {
  AppendValue(req.shard, out);
}

bool ParseShardActivateRequest(std::span<const uint8_t> payload,
                               ShardActivateRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  ShardActivateRequest req;
  if (!reader.Read(&req.shard) || reader.remaining() != 0) return false;
  *out = req;
  return true;
}

void EncodeSegmentShipRequestTo(const SegmentShipRequest& req,
                                std::vector<uint8_t>* out) {
  AppendValue(req.after_seq, out);
  AppendValue(req.shard, out);
  AppendValue(req.max_items, out);
}

bool ParseSegmentShipRequest(std::span<const uint8_t> payload,
                             SegmentShipRequest* out) {
  ByteReader reader(payload.data(), payload.size());
  SegmentShipRequest req;
  if (!reader.Read(&req.after_seq) || !reader.Read(&req.shard) ||
      !reader.Read(&req.max_items) || reader.remaining() != 0) {
    return false;
  }
  *out = req;
  return true;
}

void EncodeSegmentShipPayloadTo(const SegmentShipResult& res,
                                std::vector<uint8_t>* out) {
  AppendValue(res.next_after, out);
  AppendValue(res.exhausted, out);
  AppendValue(static_cast<uint8_t>(0), out);
  AppendValue(static_cast<uint16_t>(0), out);  // pad to 8
  AppendValue(static_cast<uint32_t>(res.items.size()), out);
  AppendRaw(res.items.data(), res.items.size() * sizeof(Item), out);
}

bool ParseSegmentShipPayload(std::span<const uint8_t> payload,
                             SegmentShipResult* out) {
  ByteReader reader(payload.data(), payload.size());
  SegmentShipResult res;
  uint8_t pad1 = 0;
  uint16_t pad2 = 0;
  uint32_t nitems = 0;
  if (!reader.Read(&res.next_after) || !reader.Read(&res.exhausted) ||
      !reader.Read(&pad1) || !reader.Read(&pad2) || !reader.Read(&nitems)) {
    return false;
  }
  if (res.exhausted > 1 || pad1 != 0 || pad2 != 0) return false;
  if (reader.remaining() != static_cast<size_t>(nitems) * sizeof(Item)) {
    return false;
  }
  res.items.resize(nitems);
  if (nitems > 0) {
    const size_t start = payload.size() - reader.remaining();
    std::memcpy(res.items.data(), payload.data() + start,
                static_cast<size_t>(nitems) * sizeof(Item));
  }
  *out = std::move(res);
  return true;
}

bool ParseError(std::span<const uint8_t> payload, ErrorFrame* out) {
  ByteReader reader(payload.data(), payload.size());
  uint32_t code = 0;
  uint16_t len = 0;
  if (!reader.Read(&code) || !reader.Read(&len)) return false;
  if (reader.remaining() != len) return false;
  out->code = static_cast<ErrorCode>(code);
  out->message.assign(reinterpret_cast<const char*>(payload.data()) + 6, len);
  return true;
}

// ---------------------------------------------------------------------------

bool FrameDecoder::Poison(const std::string& why) {
  poisoned_ = true;
  error_ = why;
  // Do NOT release buffer_ here: NextView validates the *next* header after
  // handing out a span into buffer_, so a poison triggered there must leave
  // the storage behind the outstanding view intact. Views are only valid
  // until the decoder is next fed, so Append reclaims instead.
  return false;
}

bool FrameDecoder::ValidateBufferedHeader() {
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return true;  // need more to judge
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + consumed_, 4);
  if (length < kFrameHeaderBytes) {
    return Poison("frame length " + std::to_string(length) +
                  " below header size");
  }
  if (length > options_.max_frame_bytes + kFrameHeaderBytes) {
    return Poison("frame length " + std::to_string(length) +
                  " exceeds cap " +
                  std::to_string(options_.max_frame_bytes));
  }
  if (avail >= 5 && buffer_[consumed_ + 4] != kProtocolVersion) {
    return Poison("unsupported protocol version " +
                  std::to_string(buffer_[consumed_ + 4]));
  }
  if (avail >= 6) {
    const uint8_t type = buffer_[consumed_ + 5];
    if (type < 1 || type > kMaxFrameType) {
      return Poison("unknown frame type " + std::to_string(type));
    }
  }
  if (avail >= 8) {
    uint16_t reserved = 0;
    std::memcpy(&reserved, buffer_.data() + consumed_ + 6, 2);
    if (reserved != 0) return Poison("nonzero reserved field");
  }
  return true;
}

bool FrameDecoder::Append(const uint8_t* data, size_t size) {
  if (poisoned_) {
    // Any previously handed-out view just expired; release the dead bytes.
    buffer_.clear();
    buffer_.shrink_to_fit();
    consumed_ = 0;
    return false;
  }
  // Reclaim consumed prefix before growing, so steady-state buffering stays
  // bounded by one frame plus one read chunk.
  if (consumed_ > 0 &&
      (consumed_ >= buffer_.size() || consumed_ > kStreamChunkBytes)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
  // Fail closed as soon as the malformed bytes arrive: an oversize or
  // garbage header poisons here, before any caller waits for a full frame.
  return ValidateBufferedHeader();
}

FrameDecoder::Result FrameDecoder::NextView(FrameView* out) {
  if (poisoned_) return Result::kError;
  if (!ValidateBufferedHeader()) return Result::kError;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return Result::kNeedMore;
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + consumed_, 4);
  if (avail < 4 + static_cast<size_t>(length)) return Result::kNeedMore;

  const uint8_t* frame = buffer_.data() + consumed_;
  out->type = static_cast<FrameType>(frame[5]);
  out->payload = std::span<const uint8_t>(frame + 4 + kFrameHeaderBytes,
                                          length - kFrameHeaderBytes);
  consumed_ += 4 + static_cast<size_t>(length);
  // The consumed prefix (including this frame's bytes, which the returned
  // view still references) is reclaimed lazily by the next Append — never
  // here, so the view stays valid until the decoder is fed again.
  //
  // The next frame's header may already be buffered and malformed; poison
  // for the future but hand out the current, fully-validated frame.
  if (!ValidateBufferedHeader()) return Result::kFrame;  // frame still valid
  return Result::kFrame;
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  FrameView view;
  const Result result = NextView(&view);
  if (result != Result::kFrame) return result;
  out->type = view.type;
  out->payload.assign(view.payload.begin(), view.payload.end());
  return Result::kFrame;
}

}  // namespace qf::net
