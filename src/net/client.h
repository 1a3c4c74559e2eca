// QfClient: blocking client for QfServer's binary protocol (DESIGN.md §11).
//
// One connection, one calling thread. Request/response calls (Ingest,
// Query, Drain, ...) send a frame and block for the matching reply; ALERT
// frames that arrive interleaved while waiting are stashed and surfaced
// later through NextAlert(), so a subscribed connection can mix queries
// with alert consumption without losing either.
//
// Ingest can also be pipelined for throughput: SendIngest() queues a frame
// without waiting and AwaitIngestAck() collects acknowledgments in order;
// keeping a small window of unacknowledged frames in flight overlaps
// network latency with server-side processing (tools/qf_loadgen does this).
//
// Requests leave through one output buffer, so the wire order is the call
// order. SendIngest() only appends to it; the buffer is sent in one send()
// when it reaches kClientFlushBytes, when any other request is made, and
// before any read that could block (DESIGN.md §11, "client write
// coalescing").
//
// Every method returns false (or AlertWait::kClosed) on protocol or socket
// failure with error() describing the cause; the connection is unusable
// afterwards — a desynchronized length-prefixed stream cannot be resynced.

#ifndef QUANTILEFILTER_NET_CLIENT_H_
#define QUANTILEFILTER_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "stream/item.h"

namespace qf::net {

class QfClient {
 public:
  struct Options {
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// SO_RCVBUF, applied before connect() so it sizes the TCP window
    /// (0 = kernel default). Tests shrink it to simulate slow consumers.
    int so_rcvbuf = 0;
    /// connect() deadline. <= 0 blocks indefinitely (the historical
    /// behavior); > 0 runs a non-blocking connect bounded by this many
    /// milliseconds, so a dead backend fails fast instead of wedging the
    /// caller (the qf_cluster backend pool relies on this).
    int connect_timeout_ms = 0;
    /// ConnectWithRetry backoff: first sleep, doubling per failure up to
    /// the max, over at most `connect_attempts` tries.
    int connect_attempts = 1;
    int backoff_initial_ms = 50;
    int backoff_max_ms = 2000;
  };

  QfClient() : QfClient(Options{}) {}
  explicit QfClient(const Options& options);
  ~QfClient();

  QfClient(const QfClient&) = delete;
  QfClient& operator=(const QfClient&) = delete;

  bool Connect(const std::string& host, uint16_t port);
  /// Connect with bounded exponential backoff: up to
  /// Options::connect_attempts tries, sleeping backoff_initial_ms doubling
  /// to backoff_max_ms between failures. Returns false with the last
  /// error() once the attempt budget is exhausted.
  bool ConnectWithRetry(const std::string& host, uint16_t port);
  /// Closes the socket. Buffered frames that never left are dropped: the
  /// server never saw them, so they are never acked.
  void Close();
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  // --- Ingest ---------------------------------------------------------

  /// Queues one INGEST frame in the output buffer without waiting for its
  /// ack. The frame leaves once the buffer reaches kClientFlushBytes (so a
  /// frame that alone reaches it leaves at once), or at the next wait.
  bool SendIngest(std::span<const Item> items);
  /// Sends the buffer, then blocks for the oldest outstanding ingest ack.
  bool AwaitIngestAck(IngestAck* ack = nullptr);
  /// INGEST frames not yet acked, whether sent or still buffered.
  size_t ingest_in_flight() const { return pending_ingest_.size(); }
  /// Send + await: the synchronous convenience form.
  bool Ingest(std::span<const Item> items, IngestAck* ack = nullptr);

  // --- Queries --------------------------------------------------------

  /// Point queries; answers align with `keys`. Preceded by Drain() when
  /// read-your-writes is required.
  bool Query(std::span<const uint64_t> keys,
             std::vector<QueryAnswer>* answers);

  // --- Control --------------------------------------------------------

  bool Drain();
  bool Checkpoint(std::vector<uint8_t>* blob);
  bool Restore(std::span<const uint8_t> blob);
  /// The server's own counters (CONTROL kStats), projected through
  /// WireStatsFromMetrics; fails if any series is missing.
  bool Stats(WireStats* out);
  /// Fetches the server's full MetricsRegistry snapshot (CONTROL kMetrics,
  /// DESIGN.md §15). Help/unit strings are not carried on the wire, so the
  /// returned samples have empty help/unit. Fails (connection still usable)
  /// against pre-kMetrics servers, which reject the unknown op.
  bool FetchMetrics(obs::MetricsSnapshot* out);
  /// Asks the server to drain and exit; returns once the server acked.
  bool Shutdown();

  // --- Cluster plane (DESIGN.md §16) ----------------------------------
  // Thin wrappers over the cluster CONTROL ops. The coordinator answers
  // FetchTopology/Migrate; backends answer the shard-handoff trio and
  // SegmentShip. All fail (connection still usable) against binaries that
  // predate the op.

  bool FetchTopology(WireTopology* out);
  bool Migrate(uint32_t slot, uint32_t target_backend);
  bool ShardExportFetch(uint32_t shard, ShardExport* out);
  bool ShardImportPush(const ShardImport& imp);
  bool ShardActivate(uint32_t shard);
  bool SegmentShip(const SegmentShipRequest& req, SegmentShipResult* out);

  // --- Alerts ---------------------------------------------------------

  bool Subscribe(bool enable);

  enum class AlertWait {
    kAlert,    // *out filled
    kTimeout,  // no alert within timeout_ms
    kClosed,   // connection lost or protocol error (see error())
  };
  /// Next ALERT frame: stashed ones first, then reads the socket.
  /// timeout_ms < 0 blocks indefinitely.
  AlertWait NextAlert(WireAlert* out, int timeout_ms);

 private:
  /// Sends the whole output buffer; the client's one write path.
  bool Flush();
  /// Flushes, then reads until one complete frame is decoded, within one
  /// deadline of timeout_ms for the whole call (< 0 blocks). Returns false
  /// on close/poison/timeout (timed_out set on timeout).
  bool ReadFrame(Frame* out, int timeout_ms, bool* timed_out = nullptr);
  /// Reads frames until one of type `want` arrives, stashing alerts and
  /// failing on ERROR frames or anything unexpected.
  bool AwaitType(FrameType want, Frame* out);
  bool Fail(const std::string& why);
  /// Control request returning the (validated) result frame.
  bool ControlRoundTrip(ControlOp op, std::span<const uint8_t> op_payload,
                        ControlResult* result);

  Options options_;
  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<uint8_t> out_;  // encoded requests not yet sent
  std::deque<WireAlert> stashed_alerts_;
  std::deque<uint64_t> pending_ingest_;  // tokens awaiting acks, in order
  uint64_t next_token_ = 1;
  std::string error_;
};

}  // namespace qf::net

#endif  // QUANTILEFILTER_NET_CLIENT_H_
