#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace qf::net {

QfClient::QfClient(const Options& options)
    : options_(options),
      decoder_(FrameDecoder::Options{options.max_frame_bytes}) {}

QfClient::~QfClient() { Close(); }

bool QfClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Fail("socket: " + std::string(strerror(errno)));
  if (options_.so_rcvbuf > 0) {
    setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.so_rcvbuf,
               sizeof(options_.so_rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Fail("bad host: " + host);
  }
  if (options_.connect_timeout_ms > 0) {
    // Non-blocking connect bounded by the deadline: a dead or blackholed
    // backend fails here in connect_timeout_ms instead of the kernel's
    // minutes-long SYN retry schedule.
    const int fl = fcntl(fd_, F_GETFL, 0);
    fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        return Fail("connect: " + std::string(strerror(errno)));
      }
      pollfd pfd{fd_, POLLOUT, 0};
      int left_ms = options_.connect_timeout_ms;
      int p;
      do {
        const auto t0 = std::chrono::steady_clock::now();
        p = poll(&pfd, 1, left_ms);
        if (p < 0 && errno == EINTR) {
          left_ms -= static_cast<int>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          if (left_ms <= 0) p = 0;
        }
      } while (p < 0 && errno == EINTR);
      if (p < 0) return Fail("poll: " + std::string(strerror(errno)));
      if (p == 0) return Fail("connect: timed out");
      int err = 0;
      socklen_t err_len = sizeof(err);
      if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
          err != 0) {
        return Fail("connect: " + std::string(strerror(err != 0 ? err
                                                                : errno)));
      }
    }
    fcntl(fd_, F_SETFL, fl);  // back to blocking for the send/recv paths
  } else if (connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) != 0) {
    return Fail("connect: " + std::string(strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_ = FrameDecoder(FrameDecoder::Options{options_.max_frame_bytes});
  stashed_alerts_.clear();
  pending_ingest_.clear();
  error_.clear();
  return true;
}

bool QfClient::ConnectWithRetry(const std::string& host, uint16_t port) {
  int sleep_ms = options_.backoff_initial_ms;
  const int attempts = std::max(options_.connect_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (Connect(host, port)) return true;
    if (attempt + 1 == attempts) break;  // no sleep after the last failure
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    sleep_ms = std::min(sleep_ms * 2, options_.backoff_max_ms);
  }
  return false;  // error_ carries the last Connect failure
}

void QfClient::Close() {
  out_.clear();
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool QfClient::Fail(const std::string& why) {
  error_ = why;
  Close();
  return false;
}

bool QfClient::Flush() {
  if (fd_ < 0) return false;
  size_t off = 0;
  while (off < out_.size()) {
    const ssize_t n =
        send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail("send: " + std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  out_.clear();
  // Keep the buffer's capacity for the next burst of frames, but not the
  // capacity of a checkpoint-sized CONTROL request.
  if (out_.capacity() > kStreamChunkBytes) out_.shrink_to_fit();
  return true;
}

bool QfClient::ReadFrame(Frame* out, int timeout_ms, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return false;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const FrameDecoder::Result r = decoder_.Next(out);
    if (r == FrameDecoder::Result::kFrame) return true;
    if (r == FrameDecoder::Result::kError) {
      return Fail("protocol: " + decoder_.error());
    }
    if (!Flush()) return false;
    if (timeout_ms >= 0) {
      const auto left =
          std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      const int p =
          poll(&pfd, 1, std::max(static_cast<int>(left.count()), 0));
      if (p < 0) {
        if (errno == EINTR) continue;
        return Fail("poll: " + std::string(strerror(errno)));
      }
      if (p == 0) {
        if (timed_out != nullptr) *timed_out = true;
        return false;
      }
    }
    uint8_t buf[kStreamChunkBytes];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return Fail("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail("recv: " + std::string(strerror(errno)));
    }
    if (!decoder_.Append(buf, static_cast<size_t>(n))) {
      return Fail("protocol: " + decoder_.error());
    }
  }
}

bool QfClient::AwaitType(FrameType want, Frame* out) {
  while (true) {
    if (!ReadFrame(out, /*timeout_ms=*/-1)) return false;
    if (out->type == want) return true;
    if (out->type == FrameType::kAlert) {
      WireAlert alert;
      if (!ParseAlert(out->payload, &alert)) {
        return Fail("protocol: malformed ALERT frame");
      }
      stashed_alerts_.push_back(alert);
      continue;
    }
    if (out->type == FrameType::kError) {
      ErrorFrame err;
      if (ParseError(out->payload, &err)) {
        return Fail("server error: " + err.message);
      }
      return Fail("server error (malformed ERROR frame)");
    }
    return Fail(std::string("unexpected frame: ") +
                FrameTypeName(out->type));
  }
}

bool QfClient::SendIngest(std::span<const Item> items) {
  if (fd_ < 0) return false;
  const uint64_t token = next_token_++;
  EncodeIngestTo(token, items, &out_);
  if (out_.size() >= kClientFlushBytes && !Flush()) return false;
  pending_ingest_.push_back(token);
  return true;
}

bool QfClient::AwaitIngestAck(IngestAck* ack) {
  if (pending_ingest_.empty()) return Fail("no ingest frame in flight");
  Frame frame;
  if (!AwaitType(FrameType::kIngestAck, &frame)) return false;
  IngestAck parsed;
  if (!ParseIngestAck(frame.payload, &parsed)) {
    return Fail("protocol: malformed INGEST_ACK");
  }
  if (parsed.token != pending_ingest_.front()) {
    return Fail("protocol: ingest ack out of order");
  }
  pending_ingest_.pop_front();
  if (ack != nullptr) *ack = parsed;
  return true;
}

bool QfClient::Ingest(std::span<const Item> items, IngestAck* ack) {
  return SendIngest(items) && AwaitIngestAck(ack);
}

bool QfClient::Query(std::span<const uint64_t> keys,
                     std::vector<QueryAnswer>* answers) {
  const uint64_t token = next_token_++;
  EncodeQueryTo(token, keys, &out_);
  if (!Flush()) return false;
  Frame frame;
  if (!AwaitType(FrameType::kQueryResult, &frame)) return false;
  QueryResult result;
  if (!ParseQueryResult(frame.payload, &result) || result.token != token ||
      result.answers.size() != keys.size()) {
    return Fail("protocol: malformed QUERY_RESULT");
  }
  if (answers != nullptr) *answers = std::move(result.answers);
  return true;
}

bool QfClient::ControlRoundTrip(ControlOp op,
                                std::span<const uint8_t> op_payload,
                                ControlResult* result) {
  const uint64_t token = next_token_++;
  EncodeControlTo(token, op, op_payload, &out_);
  if (!Flush()) return false;
  Frame frame;
  if (!AwaitType(FrameType::kControlResult, &frame)) return false;
  ControlResult parsed;
  if (!ParseControlResult(frame.payload, &parsed) || parsed.token != token ||
      parsed.op != op) {
    return Fail("protocol: malformed CONTROL_RESULT");
  }
  if (parsed.status != ControlStatus::kOk) {
    error_ = "control op rejected by server";
    if (result != nullptr) *result = std::move(parsed);
    return false;  // connection still usable; do not Close()
  }
  if (result != nullptr) *result = std::move(parsed);
  return true;
}

bool QfClient::Drain() {
  return ControlRoundTrip(ControlOp::kDrain, {}, nullptr);
}

bool QfClient::Checkpoint(std::vector<uint8_t>* blob) {
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kCheckpoint, {}, &result)) return false;
  if (blob != nullptr) *blob = std::move(result.payload);
  return true;
}

bool QfClient::Restore(std::span<const uint8_t> blob) {
  return ControlRoundTrip(ControlOp::kRestore, blob, nullptr);
}

bool QfClient::Stats(WireStats* out) {
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kStats, {}, &result)) return false;
  if (out == nullptr) return true;
  obs::MetricsSnapshot snap;
  if (!ParseMetricsPayload(result.payload, &snap)) {
    return Fail("protocol: malformed stats payload");
  }
  std::string error;
  if (!WireStatsFromMetrics(snap, out, &error)) {
    return Fail("protocol: " + error);
  }
  return true;
}

bool QfClient::FetchMetrics(obs::MetricsSnapshot* out) {
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kMetrics, {}, &result)) return false;
  if (out != nullptr && !ParseMetricsPayload(result.payload, out)) {
    return Fail("protocol: malformed metrics payload");
  }
  return true;
}

bool QfClient::Shutdown() {
  return ControlRoundTrip(ControlOp::kShutdown, {}, nullptr);
}

bool QfClient::FetchTopology(WireTopology* out) {
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kTopology, {}, &result)) return false;
  if (out != nullptr && !ParseTopologyPayload(result.payload, out)) {
    return Fail("protocol: malformed topology payload");
  }
  return true;
}

bool QfClient::Migrate(uint32_t slot, uint32_t target_backend) {
  std::vector<uint8_t> payload;
  EncodeMigratePayloadTo(MigrateRequest{slot, target_backend}, &payload);
  return ControlRoundTrip(ControlOp::kMigrate, payload, nullptr);
}

bool QfClient::ShardExportFetch(uint32_t shard, ShardExport* out) {
  std::vector<uint8_t> payload;
  EncodeShardExportRequestTo(ShardExportRequest{shard}, &payload);
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kShardExport, payload, &result)) {
    return false;
  }
  if (out != nullptr && !ParseShardExportPayload(result.payload, out)) {
    return Fail("protocol: malformed shard export payload");
  }
  return true;
}

bool QfClient::ShardImportPush(const ShardImport& imp) {
  std::vector<uint8_t> payload;
  EncodeShardImportPayloadTo(imp, &payload);
  return ControlRoundTrip(ControlOp::kShardImport, payload, nullptr);
}

bool QfClient::ShardActivate(uint32_t shard) {
  std::vector<uint8_t> payload;
  EncodeShardActivateRequestTo(ShardActivateRequest{shard}, &payload);
  return ControlRoundTrip(ControlOp::kShardActivate, payload, nullptr);
}

bool QfClient::SegmentShip(const SegmentShipRequest& req,
                           SegmentShipResult* out) {
  std::vector<uint8_t> payload;
  EncodeSegmentShipRequestTo(req, &payload);
  ControlResult result;
  if (!ControlRoundTrip(ControlOp::kSegmentShip, payload, &result)) {
    return false;
  }
  if (out != nullptr && !ParseSegmentShipPayload(result.payload, out)) {
    return Fail("protocol: malformed segment ship payload");
  }
  return true;
}

bool QfClient::Subscribe(bool enable) {
  const uint64_t token = next_token_++;
  EncodeSubscribeTo(token, enable, &out_);
  if (!Flush()) return false;
  Frame frame;
  if (!AwaitType(FrameType::kSubscribe, &frame)) return false;
  SubscribeRequest echo;
  if (!ParseSubscribe(frame.payload, &echo) || echo.token != token ||
      echo.enable != enable) {
    return Fail("protocol: malformed SUBSCRIBE echo");
  }
  return true;
}

QfClient::AlertWait QfClient::NextAlert(WireAlert* out, int timeout_ms) {
  if (!stashed_alerts_.empty()) {
    *out = stashed_alerts_.front();
    stashed_alerts_.pop_front();
    return AlertWait::kAlert;
  }
  Frame frame;
  while (true) {
    bool timed_out = false;
    if (!ReadFrame(&frame, timeout_ms, &timed_out)) {
      return timed_out ? AlertWait::kTimeout : AlertWait::kClosed;
    }
    if (frame.type == FrameType::kAlert) {
      if (!ParseAlert(frame.payload, out)) {
        Fail("protocol: malformed ALERT frame");
        return AlertWait::kClosed;
      }
      return AlertWait::kAlert;
    }
    if (frame.type == FrameType::kError) {
      ErrorFrame err;
      Fail(ParseError(frame.payload, &err)
               ? "server error: " + err.message
               : "server error (malformed ERROR frame)");
      return AlertWait::kClosed;
    }
    // Any other frame here means the caller interleaved calls wrongly;
    // surface it as a protocol failure rather than dropping it.
    Fail(std::string("unexpected frame while waiting for alerts: ") +
         FrameTypeName(frame.type));
    return AlertWait::kClosed;
  }
}

}  // namespace qf::net
