// Cluster coordinator: the scatter/gather proxy behind tools/qf_cluster
// (DESIGN.md §16).
//
// One coordinator fronts M qf_server backends that were booted with
// identical filter geometry. It speaks the ordinary QfServer wire protocol
// to clients — qf_loadgen and QfClient work unchanged — and routes:
//
//   INGEST     scattered per item by slot ownership; the client's ack fires
//              only after every owning backend acked its sub-batch, so an
//              acked item is durably owned somewhere.
//   QUERY      fanned out by key ownership, answers reassembled in key
//              order — bit-identical to a single-process filter with the
//              same geometry and seed.
//   SUBSCRIBE  the coordinator holds one upstream subscription per backend
//              and re-tags forwarded alerts with a per-subscriber gap-free
//              sequence (WireAlert::reserved carries the backend index).
//   CONTROL    kStats and kMetrics merge the backends' QFMS snapshots
//              series by series (obs::MergeSnapshotInto); kMetrics adds
//              the coordinator's qf_cluster_* series, and both carry the
//              coordinator's own client plane (accepts, disconnects, slow
//              disconnects, active connections) in place of the backend
//              sums of those series; kTopology answers locally;
//              kMigrate drives a live slot migration; kDrain fans out;
//              kShutdown is acked, then stops the coordinator once the
//              ack has drained (backends keep running);
//              kCheckpoint/kRestore and the shard-handoff ops answer
//              kBadRequest — they are backend-plane operations.
//
// Threading: one net::EventLoop thread (net/reactor.h, shared with
// QfServer) owns every client, every backend link, the one slot table
// (cluster::Topology) and all routing and fence state — no locks on the
// data path (DESIGN.md §16.5). Clients and backend links are
// net::Connections; clients live in a net::ClientTable, the one QfServer
// reactors use (connection cap, close accounting, alert fan-out, kShutdown
// handshake), carrying the coordinator's ordered reply deque as per-client
// state. INGEST items are classified straight out of the receive buffer
// into per-backend coalescing buffers (preformatted INGEST frames), each
// flushed as one large backend frame at the end of the event-loop tick or
// once it fills; a per-backend FIFO credit ledger maps each backend ack
// back to the originating client replies, so per-connection ack order is
// preserved exactly. A migration runs on its own worker thread with
// private blocking QfClient connections; it rendezvouses with the loop
// through EventLoop::Post — fence + ack barrier, then flip or abort — so
// ownership changes are atomic with respect to scattering. Backends that
// drop, or send a corrupt stream (a mismatched INGEST_ACK, a gap in their
// ALERT seqs), reconnect with bounded exponential backoff; requests
// touching a dead backend fail the issuing client fast (ERROR + close)
// rather than stalling it.

#ifndef QUANTILEFILTER_CLUSTER_COORDINATOR_H_
#define QUANTILEFILTER_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace qf::cluster {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()

  /// Backend addresses ("host:port"), index = backend id in the topology.
  std::vector<std::string> backends;

  /// Must equal every backend's --shards (a slot IS a shard index). The
  /// coordinator cannot verify this remotely; a mismatch routes keys to
  /// shards that never see them and breaks oracle equivalence.
  uint32_t num_slots = 0;

  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;

  /// The coordinator runs one event loop; Start() fails unless this is 1.
  /// The field stays only because qfbench/reps.cc still sets it.
  int reactors = 1;

  /// Coalescing flush policy: a per-backend buffer flushes at the end of
  /// every event-loop tick — latency-neutral, merging exactly what one
  /// epoll batch delivered — or as soon as it reaches this many bytes
  /// (clamped under max_frame_bytes).
  size_t coalesce_max_bytes = 256u << 10;

  /// Per-connection write-queue cap; a consumer that stays above it is
  /// dropped as slow (same policy as QfServer).
  size_t max_write_queue_bytes = 64u << 20;

  /// Backend pool reconnect tuning.
  int backend_connect_timeout_ms = 2000;
  int backend_backoff_initial_ms = 50;
  int backend_backoff_max_ms = 2000;

  /// Migration tuning: per-round WAL catch-up batch, and the round size
  /// below which the coordinator fences the slot and cuts over.
  uint32_t ship_batch_items = 32768;
  uint32_t ship_cutover_items = 4096;
};

class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listening socket and spawns the event-loop thread. Backend
  /// connections are established asynchronously with backoff — poll
  /// kTopology until every backend reports kReady before driving load.
  bool Start();

  /// Stops the event loop, joins any in-flight migration worker, closes
  /// every socket. Idempotent.
  void Stop();

  /// True between Start() and loop exit (Stop() or a client kShutdown).
  bool running() const;

  uint16_t port() const;
  const std::string& error() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qf::cluster

#endif  // QUANTILEFILTER_CLUSTER_COORDINATOR_H_
