// QuantileFilter wire protocol: length-prefixed binary frames (DESIGN.md
// §11).
//
// Every frame is
//
//   u32 length     — byte count of everything after this field (LE)
//   u8  version    — kProtocolVersion; mismatches fail closed
//   u8  type       — FrameType
//   u16 reserved   — must be zero (room for flags; non-zero fails closed)
//   u8  payload[length - 4]
//
// Client -> server: INGEST (batched <key,value> items), QUERY (point
// Qweight + candidate status), SUBSCRIBE (enable/disable the alert
// stream), CONTROL (stats / drain / checkpoint / restore / shutdown).
// Server -> client: INGEST_ACK, QUERY_RESULT, ALERT (streamed detections),
// CONTROL_RESULT, ERROR.
//
// Client-chosen u64 tokens correlate responses with requests; ALERT frames
// carry a per-connection sequence number instead (they are unsolicited).
//
// The decoder (FrameDecoder) is incremental and fail-closed: it accepts
// arbitrary byte chunks, never over-reads, caps both the declared frame
// length and its internal buffering at Options::max_frame_bytes (+ header),
// and poisons the stream permanently on the first malformed header — a
// desynchronized length-prefixed stream cannot be trusted again. It is pure
// in-memory code with no socket dependency, which is what the wire-frame
// fuzz mode in tools/qf_fuzz drives.

#ifndef QUANTILEFILTER_NET_PROTOCOL_H_
#define QUANTILEFILTER_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "stream/item.h"

namespace qf::net {

inline constexpr uint8_t kProtocolVersion = 1;

/// Frame header bytes after the length field (version, type, reserved).
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default cap on a frame's payload. CONTROL checkpoint/restore frames
/// carry whole serialized filters, so the cap is sized for checkpoint
/// blobs (a filter checkpoint is roughly its memory budget).
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Bytes one recv() asks for on every stream socket (QfServer, the
/// coordinator, QfClient); FrameDecoder::Append compacts its buffer once
/// the consumed prefix passes it.
inline constexpr size_t kStreamChunkBytes = 64u << 10;

/// QfClient sends its buffered INGEST frames once they reach this many
/// bytes. Measured on serve-mixed (32-item frames), 16 KiB and 64 KiB gain
/// alike, but at 64 KiB the 16 KiB frames of cluster wait for a partner
/// and cluster loses throughput.
inline constexpr size_t kClientFlushBytes = 16u << 10;

enum class FrameType : uint8_t {
  kIngest = 1,
  kQuery = 2,
  kSubscribe = 3,
  kControl = 4,
  kIngestAck = 5,
  kQueryResult = 6,
  kAlert = 7,
  kControlResult = 8,
  kError = 9,
};
inline constexpr uint8_t kMaxFrameType = 9;

const char* FrameTypeName(FrameType type);

// Op 1 is retired: it carried the fixed-size WireStats block, which a
// client of that format would misread from any long-enough payload, so
// every parser rejects it (like an unknown op).
enum class ControlOp : uint8_t {
  kDrain = 2,       // flush + fence the pipeline; reply when quiescent
  kCheckpoint = 3,  // drain, then reply payload: SerializeState() blob
  kRestore = 4,     // request payload: checkpoint blob; drain, then restore
  kShutdown = 5,    // drain, ack, then stop serving
  kMetrics = 6,     // reply payload: full MetricsRegistry snapshot (§15)
  // Cluster plane (DESIGN.md §16). kTopology/kMigrate are answered by the
  // qf_cluster coordinator; the shard-handoff ops below are answered by
  // backends. Pre-cluster binaries reject all six fail-closed via the
  // ParseControl op-range check.
  kTopology = 7,       // reply payload: WireTopology (slot map + backends)
  kMigrate = 8,        // request payload: MigrateRequest; live slot move
  kShardExport = 9,    // request: ShardExportRequest; reply: ShardExport
  kShardImport = 10,   // request payload: ShardImport (blob + RNG, mutes)
  kShardActivate = 11, // request: ShardActivateRequest; unmute + quiesce
  kSegmentShip = 12,   // request: SegmentShipRequest; reply: WAL tail items
  kStats = 13,  // reply payload: the server's own series (§15), as kMetrics
};
inline constexpr uint8_t kMinControlOp = 2;
inline constexpr uint8_t kMaxControlOp = 13;

/// CONTROL_RESULT status byte.
enum class ControlStatus : uint8_t {
  kOk = 0,
  kBadRequest = 1,   // unknown op / malformed op payload
  kRejected = 2,     // e.g. restore blob failed CRC or geometry checks
};

/// A server's own counters (QfServer::OwnSeries), projected out of the
/// kStats (or kMetrics) snapshot by WireStatsFromMetrics. A client-side
/// view: on the wire each field is a named QFMS series.
struct WireStats {
  uint64_t items_ingested = 0;    // items accepted from INGEST + boot replay
  uint64_t items_processed = 0;   // items drained by pipeline workers
  uint64_t reports = 0;           // outstanding-key reports across shards
  uint64_t alerts_streamed = 0;   // ALERT frames queued to subscribers
  uint64_t alerts_dropped = 0;    // alert-ring overflows (at-most-once)
  uint64_t accepts = 0;           // connections accepted since boot
  uint64_t active_connections = 0;
  uint64_t disconnects = 0;       // connections closed since boot
  uint64_t slow_disconnects = 0;  // connections dropped over write-queue cap
  // Durability (src/durable/): zero when the server runs without --wal-dir.
  uint64_t wal_records_appended = 0;   // ingest batches logged since boot
  uint64_t wal_records_replayed = 0;   // log-tail records re-driven at boot
  uint64_t wal_torn_truncations = 0;   // torn trailing frames repaired
  uint64_t wal_segments_written = 0;   // segment files opened since boot
  uint64_t wal_checkpoints_written = 0;  // checkpoints written since boot
};

/// One alert on the wire. `seq` counts ALERT frames on this connection;
/// gaps never occur (drops happen upstream of the per-connection stream and
/// are visible only in WireStats::alerts_dropped).
struct WireAlert {
  uint64_t seq = 0;
  uint64_t key = 0;
  double value = 0.0;   // the item value that triggered the report
  uint32_t shard = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WireAlert) == 32);

/// One QUERY answer.
struct QueryAnswer {
  int64_t qweight = 0;
  uint8_t is_candidate = 0;
};

/// A decoded frame: type plus its raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// A decoded frame as a zero-copy view into the decoder's buffer. Valid
/// only until the decoder's next Append/Next/NextView call (see
/// FrameDecoder::NextView).
struct FrameView {
  FrameType type = FrameType::kError;
  std::span<const uint8_t> payload;
};

/// ERROR frame codes.
enum class ErrorCode : uint32_t {
  kMalformedFrame = 1,
  kUnsupportedType = 2,
  kBadPayload = 3,
  kSlowConsumer = 4,
  kShuttingDown = 5,
  kInternal = 6,  // server-side failure (e.g. a WAL append error)
};

// ---------------------------------------------------------------------------
// Encoding. The *To forms append to `out` (the server's per-connection write
// queue); the value forms build a fresh buffer (client convenience).

void AppendFrameTo(FrameType type, std::span<const uint8_t> payload,
                   std::vector<uint8_t>* out);

void EncodeIngestTo(uint64_t token, std::span<const Item> items,
                    std::vector<uint8_t>* out);
void EncodeIngestAckTo(uint64_t token, uint32_t count, uint64_t total_items,
                       std::vector<uint8_t>* out);
void EncodeQueryTo(uint64_t token, std::span<const uint64_t> keys,
                   std::vector<uint8_t>* out);
void EncodeQueryResultTo(uint64_t token,
                         std::span<const QueryAnswer> answers,
                         std::vector<uint8_t>* out);
void EncodeSubscribeTo(uint64_t token, bool enable,
                       std::vector<uint8_t>* out);
void EncodeControlTo(uint64_t token, ControlOp op,
                     std::span<const uint8_t> op_payload,
                     std::vector<uint8_t>* out);
void EncodeControlResultTo(uint64_t token, ControlOp op, ControlStatus status,
                           std::span<const uint8_t> payload,
                           std::vector<uint8_t>* out);
void EncodeAlertTo(const WireAlert& alert, std::vector<uint8_t>* out);
void EncodeErrorTo(ErrorCode code, std::string_view message,
                   std::vector<uint8_t>* out);

// ---------------------------------------------------------------------------
// Payload parsers. Each returns false on any size/shape violation and
// touches the outputs only on success. Item/key vectors are cleared and
// refilled so callers can reuse capacity across frames.

struct IngestRequest {
  uint64_t token = 0;
  std::vector<Item> items;
};
bool ParseIngest(std::span<const uint8_t> payload, IngestRequest* out);

struct IngestAck {
  uint64_t token = 0;
  uint32_t count = 0;
  uint64_t total_items = 0;
};
bool ParseIngestAck(std::span<const uint8_t> payload, IngestAck* out);

struct QueryRequest {
  uint64_t token = 0;
  std::vector<uint64_t> keys;
};
bool ParseQuery(std::span<const uint8_t> payload, QueryRequest* out);

struct QueryResult {
  uint64_t token = 0;
  std::vector<QueryAnswer> answers;
};
bool ParseQueryResult(std::span<const uint8_t> payload, QueryResult* out);

struct SubscribeRequest {
  uint64_t token = 0;
  bool enable = false;
};
bool ParseSubscribe(std::span<const uint8_t> payload, SubscribeRequest* out);

struct ControlRequest {
  uint64_t token = 0;
  ControlOp op = ControlOp::kStats;
  std::vector<uint8_t> op_payload;
};
bool ParseControl(std::span<const uint8_t> payload, ControlRequest* out);

struct ControlResult {
  uint64_t token = 0;
  ControlOp op = ControlOp::kStats;
  ControlStatus status = ControlStatus::kOk;
  std::vector<uint8_t> payload;
};
bool ParseControlResult(std::span<const uint8_t> payload, ControlResult* out);

bool ParseAlert(std::span<const uint8_t> payload, WireAlert* out);

/// The stats plane's one name table, both ways. WireStatsToMetrics names
/// every field (qf_net_active_connections is a gauge, the rest counters).
/// WireStatsFromMetrics is fail-closed: a snapshot missing any of those
/// series (or carrying a negative gauge) returns false, names the series
/// in `*error` (if non-null) and leaves `*out` untouched. Extra series are
/// ignored, so a kMetrics snapshot projects too.
obs::MetricsSnapshot WireStatsToMetrics(const WireStats& stats);
bool WireStatsFromMetrics(const obs::MetricsSnapshot& snap, WireStats* out,
                          std::string* error);
/// Writes the client-plane series of `stats` (accepts, disconnects, slow
/// disconnects, active connections) into `snap`, replacing samples of the
/// same name: a front end relaying backend snapshots reports its own
/// clients, not the backends' connections.
void OverlayClientPlane(const WireStats& stats, obs::MetricsSnapshot* snap);

// ControlOp::kMetrics reply payload ("wire metrics snapshot", DESIGN.md §15):
//
//   u32 magic = kMetricsPayloadMagic     u16 version = kMetricsPayloadVersion
//   u16 reserved = 0
//   u64 wall_ns   u64 mono_ns
//   u32 n_counters   u32 n_gauges   u32 n_histograms
//   counters:   n_counters   x { u16 name_len, name bytes, u64 value }
//   gauges:     n_gauges     x { u16 name_len, name bytes, i64 value }
//   histograms: n_histograms x { u16 name_len, name bytes,
//                                u64 count, u64 sum, u64 max,
//                                u32 n_buckets,
//                                n_buckets x { u32 index, u64 count } }
//
// Buckets are sparse (non-zero only) with strictly increasing indices below
// HistogramLayout::kNumBuckets; help/unit strings stay server-side. The
// parser is fail-closed: any shape violation (bad magic/version, name length
// outside [1, kMetricsMaxNameLen], non-canonical buckets, trailing bytes)
// returns false and leaves *out untouched.
inline constexpr uint32_t kMetricsPayloadMagic = 0x51464D53;  // "QFMS"
inline constexpr uint16_t kMetricsPayloadVersion = 1;
inline constexpr size_t kMetricsMaxNameLen = 1024;

void EncodeMetricsPayloadTo(const obs::MetricsSnapshot& snap,
                            std::vector<uint8_t>* out);
bool ParseMetricsPayload(std::span<const uint8_t> payload,
                         obs::MetricsSnapshot* out);

// ---------------------------------------------------------------------------
// Cluster CONTROL payloads (DESIGN.md §16). Same fail-closed contract as
// everything above: exact-size layouts, outputs touched only on success,
// forged counts bounded against the payload size before any allocation.
// tools/qf_fuzz --wire-iters drives random/truncated/bit-flipped inputs
// through every parser here.

/// ControlOp::kTopology reply payload: the coordinator's slot map.
///
///   u32 magic = kTopologyPayloadMagic   u16 version = 1   u16 reserved = 0
///   u64 epoch   u32 num_slots   u32 num_backends
///   backends: num_backends x { u16 addr_len, addr bytes, u8 state }
///   owners:   num_slots x u32 backend index (< num_backends)
inline constexpr uint32_t kTopologyPayloadMagic = 0x51465450;  // "QFTP"
inline constexpr uint16_t kTopologyPayloadVersion = 1;
inline constexpr size_t kTopologyMaxAddrLen = 256;
inline constexpr uint32_t kTopologyMaxBackends = 4096;
inline constexpr uint32_t kTopologyMaxSlots = 1u << 20;

/// Backend liveness as seen by the coordinator's pool.
enum class BackendState : uint8_t {
  kDisconnected = 0,
  kConnecting = 1,
  kReady = 2,
};

struct WireBackend {
  std::string addr;  // "host:port"
  BackendState state = BackendState::kDisconnected;
};

struct WireTopology {
  uint64_t epoch = 0;
  std::vector<WireBackend> backends;
  std::vector<uint32_t> owner;  // slot -> backend index; size() == num_slots
};
void EncodeTopologyPayloadTo(const WireTopology& topo,
                             std::vector<uint8_t>* out);
bool ParseTopologyPayload(std::span<const uint8_t> payload,
                          WireTopology* out);

/// ControlOp::kMigrate request payload (coordinator): move one slot to
/// `target_backend`, live. The CONTROL_RESULT arrives after the ownership
/// flip (or kRejected if the migration could not start/finish).
struct MigrateRequest {
  uint32_t slot = 0;
  uint32_t target_backend = 0;
};
void EncodeMigratePayloadTo(const MigrateRequest& req,
                            std::vector<uint8_t>* out);
bool ParseMigratePayload(std::span<const uint8_t> payload,
                         MigrateRequest* out);

/// ControlOp::kShardExport request payload (backend): one u32 shard index.
struct ShardExportRequest {
  uint32_t shard = 0;
};
void EncodeShardExportRequestTo(const ShardExportRequest& req,
                                std::vector<uint8_t>* out);
bool ParseShardExportRequest(std::span<const uint8_t> payload,
                             ShardExportRequest* out);

/// ControlOp::kShardExport reply payload: a consistent snapshot of one
/// shard, captured under the server's global quiesce.
///
///   u32 shard   u8 wal_enabled   u8[3] pad = 0
///   u64 wal_gen   u64 snap_seq   4 x u64 rng
///   u32 blob_len   blob bytes (per-shard SerializeState, CRC envelope)
///
/// snap_seq is the last WAL sequence covered by the blob (0 without a WAL);
/// catch-up ships records with seq > snap_seq. RNG words travel separately
/// because SerializeState deliberately excludes them.
struct ShardExport {
  uint32_t shard = 0;
  uint8_t wal_enabled = 0;
  uint64_t wal_gen = 0;
  uint64_t snap_seq = 0;
  uint64_t rng[4] = {0, 0, 0, 0};
  std::vector<uint8_t> blob;
};
void EncodeShardExportPayloadTo(const ShardExport& exp,
                                std::vector<uint8_t>* out);
bool ParseShardExportPayload(std::span<const uint8_t> payload,
                             ShardExport* out);

/// ControlOp::kShardImport request payload (backend): restore one shard
/// from a donor's export and mute its alert stream until kShardActivate —
/// catch-up re-ingest must not re-detect keys the donor already alerted on.
///
///   u32 shard   u32 reserved = 0   4 x u64 rng   u32 blob_len   blob bytes
struct ShardImport {
  uint32_t shard = 0;
  uint64_t rng[4] = {0, 0, 0, 0};
  std::vector<uint8_t> blob;
};
void EncodeShardImportPayloadTo(const ShardImport& imp,
                                std::vector<uint8_t>* out);
bool ParseShardImportPayload(std::span<const uint8_t> payload,
                             ShardImport* out);

/// ControlOp::kShardActivate request payload (backend): one u32 shard
/// index. Fences the pipeline (all prior catch-up INGESTs applied) and
/// unmutes the shard's alerts.
struct ShardActivateRequest {
  uint32_t shard = 0;
};
void EncodeShardActivateRequestTo(const ShardActivateRequest& req,
                                  std::vector<uint8_t>* out);
bool ParseShardActivateRequest(std::span<const uint8_t> payload,
                               ShardActivateRequest* out);

/// ControlOp::kSegmentShip request payload (backend): read items back out
/// of the WAL, bounded. `shard == kSegmentShipAllShards` ships every item;
/// otherwise only items whose ShardFor() slot equals `shard` (filtered
/// donor-side so catch-up traffic is proportional to the moving slot).
///
///   u64 after_seq   u32 shard   u32 max_items
///
/// While a ship sequence is active the donor pins WAL retention at the
/// last shipped seq (checkpoints cannot reap unshipped records out from
/// under the catch-up loop). `after_seq == kSegmentShipRelease` is the
/// unpin: it clears the retention floor and returns an empty exhausted
/// result — the coordinator sends it once after the ownership flip.
inline constexpr uint32_t kSegmentShipAllShards = 0xFFFFFFFFu;
inline constexpr uint64_t kSegmentShipRelease = 0xFFFFFFFFFFFFFFFFull;
struct SegmentShipRequest {
  uint64_t after_seq = 0;  // ship records with seq > after_seq
  uint32_t shard = kSegmentShipAllShards;
  uint32_t max_items = 0;  // 0 means "server default bound"
};
void EncodeSegmentShipRequestTo(const SegmentShipRequest& req,
                                std::vector<uint8_t>* out);
bool ParseSegmentShipRequest(std::span<const uint8_t> payload,
                             SegmentShipRequest* out);

/// ControlOp::kSegmentShip reply payload:
///
///   u64 next_after   u8 exhausted   u8[3] pad = 0
///   u32 nitems   nitems x Item
///
/// `next_after` is the after_seq for the next call; `exhausted` is 1 when
/// no records beyond next_after existed at ship time.
struct SegmentShipResult {
  uint64_t next_after = 0;
  uint8_t exhausted = 0;
  std::vector<Item> items;
};
void EncodeSegmentShipPayloadTo(const SegmentShipResult& res,
                                std::vector<uint8_t>* out);
bool ParseSegmentShipPayload(std::span<const uint8_t> payload,
                             SegmentShipResult* out);

struct ErrorFrame {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
};
bool ParseError(std::span<const uint8_t> payload, ErrorFrame* out);

// ---------------------------------------------------------------------------

/// Incremental, fail-closed frame decoder over a byte stream.
class FrameDecoder {
 public:
  struct Options {
    /// Cap on a frame's payload bytes; also bounds internal buffering at
    /// max_frame_bytes + kFrameHeaderBytes + 4.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
  };

  enum class Result {
    kFrame,     // *out holds the next complete frame
    kNeedMore,  // no complete frame buffered yet
    kError,     // stream poisoned; error() describes why
  };

  FrameDecoder() : FrameDecoder(Options{}) {}
  explicit FrameDecoder(const Options& options) : options_(options) {}

  /// Buffers `size` bytes of stream input. Returns false iff the stream is
  /// (or becomes) poisoned — a malformed header is detected as soon as its
  /// bytes arrive, without waiting for the full frame.
  bool Append(const uint8_t* data, size_t size);

  /// Pulls the next complete frame out of the buffer, copying the payload
  /// into `out`. Implemented over NextView.
  Result Next(Frame* out);

  /// Zero-copy variant: `out->payload` points into the decoder's internal
  /// buffer and is invalidated by the next Append/Next/NextView call —
  /// consume the payload (or copy what must outlive it) before feeding the
  /// decoder again. This is the serving layer's ingest fast path: INGEST
  /// item arrays are scattered to pipeline shards straight from the
  /// receive buffer, with no per-frame payload vector.
  Result NextView(FrameView* out);

  bool poisoned() const { return poisoned_; }
  const std::string& error() const { return error_; }

  /// Bytes currently buffered (tests assert this stays bounded).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  bool Poison(const std::string& why);
  /// Validates the header of the frame starting at `consumed_`, as far as
  /// the buffered bytes allow. Returns false on poison.
  bool ValidateBufferedHeader();

  Options options_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out as frames
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace qf::net

#endif  // QUANTILEFILTER_NET_PROTOCOL_H_
