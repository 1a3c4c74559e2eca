// Wire-protocol codec tests (net/protocol.h): encode/parse round trips for
// every frame type, incremental decoding at adversarial chunk sizes, and
// the fail-closed paths — oversize lengths, bad version/type/reserved,
// truncated payloads, exact-size contracts.

#include "net/protocol.h"

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"

namespace qf::net {
namespace {

/// Feeds `bytes` to `decoder` in chunks of `chunk` bytes and collects every
/// complete frame.
std::vector<Frame> DecodeChunked(const std::vector<uint8_t>& bytes,
                                 size_t chunk, FrameDecoder* decoder) {
  std::vector<Frame> frames;
  for (size_t pos = 0; pos < bytes.size(); pos += chunk) {
    const size_t n = std::min(chunk, bytes.size() - pos);
    if (!decoder->Append(bytes.data() + pos, n)) break;
    Frame frame;
    while (decoder->Next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

TEST(NetProtocol, IngestRoundTrip) {
  const std::vector<Item> items = {{1, 400.0}, {2, 5.5}, {0xFFFFFFFFFFFFull, -1.0}};
  std::vector<uint8_t> wire;
  EncodeIngestTo(77, items, &wire);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Append(wire.data(), wire.size()));
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kIngest);

  IngestRequest req;
  ASSERT_TRUE(ParseIngest(frame.payload, &req));
  EXPECT_EQ(req.token, 77u);
  ASSERT_EQ(req.items.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(req.items[i].key, items[i].key);
    EXPECT_EQ(req.items[i].value, items[i].value);
  }
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
}

TEST(NetProtocol, NextViewMatchesNextWithoutCopying) {
  // NextView must yield the same frames as Next, with payload views that
  // alias the decoder buffer and survive until the next Append.
  const std::vector<Item> items = {{1, 400.0}, {2, 5.5}};
  std::vector<uint8_t> wire;
  EncodeIngestTo(7, items, &wire);
  EncodeSubscribeTo(8, true, &wire);

  FrameDecoder viewer;
  ASSERT_TRUE(viewer.Append(wire.data(), wire.size()));
  FrameView view;
  ASSERT_EQ(viewer.NextView(&view), FrameDecoder::Result::kFrame);
  EXPECT_EQ(view.type, FrameType::kIngest);
  IngestRequest req;
  ASSERT_TRUE(ParseIngest(view.payload, &req));
  EXPECT_EQ(req.token, 7u);
  ASSERT_EQ(req.items.size(), items.size());
  EXPECT_EQ(req.items[1].value, 5.5);

  // Pulling the second frame does not invalidate protocol state; both
  // frames decode in order with no payload copies.
  ASSERT_EQ(viewer.NextView(&view), FrameDecoder::Result::kFrame);
  EXPECT_EQ(view.type, FrameType::kSubscribe);
  SubscribeRequest sub;
  ASSERT_TRUE(ParseSubscribe(view.payload, &sub));
  EXPECT_EQ(sub.token, 8u);
  EXPECT_TRUE(sub.enable);
  EXPECT_EQ(viewer.NextView(&view), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(viewer.buffered_bytes(), 0u);

  // The copying API decodes the same stream identically.
  FrameDecoder copier;
  ASSERT_TRUE(copier.Append(wire.data(), wire.size()));
  Frame frame;
  ASSERT_EQ(copier.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kIngest);
  IngestRequest req2;
  ASSERT_TRUE(ParseIngest(frame.payload, &req2));
  EXPECT_EQ(req2.items.size(), req.items.size());
}

TEST(NetProtocol, NextViewByteAtATime) {
  // Views must only materialize once the full frame is buffered, and the
  // decoder must keep accepting input after handing out views.
  std::vector<uint8_t> wire;
  EncodeSubscribeTo(3, false, &wire);
  EncodeSubscribeTo(4, true, &wire);
  FrameDecoder decoder;
  size_t frames = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(decoder.Append(&wire[i], 1));
    FrameView view;
    while (decoder.NextView(&view) == FrameDecoder::Result::kFrame) {
      SubscribeRequest sub;
      ASSERT_TRUE(ParseSubscribe(view.payload, &sub));
      EXPECT_EQ(sub.token, 3u + frames);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2u);
}

TEST(NetProtocol, EmptyIngestIsValid) {
  std::vector<uint8_t> wire;
  EncodeIngestTo(1, {}, &wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Append(wire.data(), wire.size()));
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  IngestRequest req;
  ASSERT_TRUE(ParseIngest(frame.payload, &req));
  EXPECT_TRUE(req.items.empty());
}

TEST(NetProtocol, QueryAndResultRoundTrip) {
  const std::vector<uint64_t> keys = {9, 8, 7};
  std::vector<uint8_t> wire;
  EncodeQueryTo(42, keys, &wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Append(wire.data(), wire.size()));
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kQuery);
  QueryRequest req;
  ASSERT_TRUE(ParseQuery(frame.payload, &req));
  EXPECT_EQ(req.token, 42u);
  EXPECT_EQ(req.keys, keys);

  const std::vector<QueryAnswer> answers = {{-3, 0}, {600, 1}, {0, 0}};
  wire.clear();
  EncodeQueryResultTo(42, answers, &wire);
  FrameDecoder decoder2;
  ASSERT_TRUE(decoder2.Append(wire.data(), wire.size()));
  ASSERT_EQ(decoder2.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kQueryResult);
  QueryResult result;
  ASSERT_TRUE(ParseQueryResult(frame.payload, &result));
  EXPECT_EQ(result.token, 42u);
  ASSERT_EQ(result.answers.size(), answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(result.answers[i].qweight, answers[i].qweight);
    EXPECT_EQ(result.answers[i].is_candidate, answers[i].is_candidate);
  }
}

TEST(NetProtocol, SubscribeControlAlertErrorRoundTrip) {
  std::vector<uint8_t> wire;
  EncodeSubscribeTo(5, true, &wire);
  const std::vector<uint8_t> blob = {0xDE, 0xAD, 0xBE, 0xEF};
  EncodeControlTo(6, ControlOp::kRestore, blob, &wire);
  WireAlert alert;
  alert.seq = 3;
  alert.key = 0x123456789ABCDEFull;
  alert.value = 512.0;
  alert.shard = 2;
  EncodeAlertTo(alert, &wire);
  EncodeControlResultTo(6, ControlOp::kRestore, ControlStatus::kRejected, {},
                        &wire);
  EncodeErrorTo(ErrorCode::kBadPayload, "bad ingest frame", &wire);

  FrameDecoder decoder;
  const std::vector<Frame> frames = DecodeChunked(wire, 3, &decoder);
  ASSERT_EQ(frames.size(), 5u);

  SubscribeRequest sub;
  ASSERT_TRUE(ParseSubscribe(frames[0].payload, &sub));
  EXPECT_EQ(sub.token, 5u);
  EXPECT_TRUE(sub.enable);

  ControlRequest ctl;
  ASSERT_TRUE(ParseControl(frames[1].payload, &ctl));
  EXPECT_EQ(ctl.token, 6u);
  EXPECT_EQ(ctl.op, ControlOp::kRestore);
  EXPECT_EQ(ctl.op_payload, blob);

  WireAlert alert2;
  ASSERT_TRUE(ParseAlert(frames[2].payload, &alert2));
  EXPECT_EQ(alert2.seq, alert.seq);
  EXPECT_EQ(alert2.key, alert.key);
  EXPECT_EQ(alert2.value, alert.value);
  EXPECT_EQ(alert2.shard, alert.shard);

  ControlResult res;
  ASSERT_TRUE(ParseControlResult(frames[3].payload, &res));
  EXPECT_EQ(res.status, ControlStatus::kRejected);

  ErrorFrame err;
  ASSERT_TRUE(ParseError(frames[4].payload, &err));
  EXPECT_EQ(err.code, ErrorCode::kBadPayload);
  EXPECT_EQ(err.message, "bad ingest frame");
}

TEST(NetProtocol, ByteAtATimeDecoding) {
  std::vector<uint8_t> wire;
  const std::vector<Item> items = {{10, 1.0}, {11, 2.0}};
  EncodeIngestTo(1, items, &wire);
  EncodeQueryTo(2, std::vector<uint64_t>{10}, &wire);
  FrameDecoder decoder;
  const std::vector<Frame> frames = DecodeChunked(wire, 1, &decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kIngest);
  EXPECT_EQ(frames[1].type, FrameType::kQuery);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(NetProtocol, OversizeLengthPoisonsImmediately) {
  FrameDecoder::Options options;
  options.max_frame_bytes = 1024;
  FrameDecoder decoder(options);
  const uint32_t huge = 1u << 30;
  // Only the length field arrives; the decoder must not wait for a gigabyte.
  ASSERT_FALSE(
      decoder.Append(reinterpret_cast<const uint8_t*>(&huge), 4));
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_NE(decoder.error().find("exceeds cap"), std::string::npos);
  // Poisoned decoders stay poisoned.
  const uint8_t byte = 0;
  EXPECT_FALSE(decoder.Append(&byte, 1));
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, ShortLengthPoisons) {
  FrameDecoder decoder;
  const uint32_t tiny = 2;  // below the 4-byte inner header
  EXPECT_FALSE(decoder.Append(reinterpret_cast<const uint8_t*>(&tiny), 4));
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetProtocol, BadVersionTypeReservedPoison) {
  std::vector<uint8_t> good;
  EncodeSubscribeTo(1, false, &good);

  {
    std::vector<uint8_t> bad = good;
    bad[4] = kProtocolVersion + 1;
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Append(bad.data(), bad.size()));
    EXPECT_NE(decoder.error().find("version"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = good;
    bad[5] = 0;  // type 0 invalid
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Append(bad.data(), bad.size()));
    EXPECT_NE(decoder.error().find("frame type"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = good;
    bad[5] = kMaxFrameType + 1;
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Append(bad.data(), bad.size()));
  }
  {
    std::vector<uint8_t> bad = good;
    bad[6] = 0xFF;  // reserved
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Append(bad.data(), bad.size()));
    EXPECT_NE(decoder.error().find("reserved"), std::string::npos);
  }
}

TEST(NetProtocol, PoisonAfterValidFrameStillDeliversIt) {
  std::vector<uint8_t> wire;
  EncodeSubscribeTo(9, true, &wire);
  wire.push_back(0x02);  // the start of a malformed next header
  wire.push_back(0x00);
  wire.push_back(0x00);
  wire.push_back(0x00);
  FrameDecoder decoder;
  // The malformed trailing header hides behind the complete valid frame,
  // so Append cannot see it yet...
  EXPECT_TRUE(decoder.Append(wire.data(), wire.size()));
  // ...the valid frame is still delivered, and extracting it exposes the
  // bad header: the stream poisons immediately after.
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSubscribe);
  SubscribeRequest sub;
  ASSERT_TRUE(ParseSubscribe(frame.payload, &sub));
  EXPECT_EQ(sub.token, 9u);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, ViewSurvivesPoisonTriggeredByTrailingHeader) {
  // Same shape as above through the zero-copy API: the poison fires inside
  // the NextView call that hands out the span, so the decoder must not
  // release the buffer the view aliases (regression: Poison used to
  // clear + shrink_to_fit, leaving the view dangling).
  std::vector<uint8_t> wire;
  const std::vector<Item> items = {{42, 123.0}, {43, -4.0}};
  EncodeIngestTo(3, items, &wire);
  wire.push_back(0x02);  // malformed next header: length 2 < header size
  wire.push_back(0x00);
  wire.push_back(0x00);
  wire.push_back(0x00);
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.Append(wire.data(), wire.size()));
  FrameView view;
  ASSERT_EQ(decoder.NextView(&view), FrameDecoder::Result::kFrame);
  EXPECT_TRUE(decoder.poisoned());
  IngestRequest req;
  ASSERT_TRUE(ParseIngest(view.payload, &req));
  EXPECT_EQ(req.token, 3u);
  ASSERT_EQ(req.items.size(), items.size());
  EXPECT_EQ(req.items[0].key, 42u);
  EXPECT_EQ(req.items[1].value, -4.0);
  // Feeding the poisoned decoder expires the view and stays rejected.
  const uint8_t byte = 0;
  EXPECT_FALSE(decoder.Append(&byte, 1));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetProtocol, ParserSizeContracts) {
  // Ingest: count disagreeing with the byte count is rejected.
  std::vector<uint8_t> wire;
  EncodeIngestTo(1, std::vector<Item>{{1, 2.0}}, &wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Append(wire.data(), wire.size()));
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);

  IngestRequest req;
  std::vector<uint8_t> bad = frame.payload;
  bad.push_back(0);  // trailing garbage
  EXPECT_FALSE(ParseIngest(bad, &req));
  bad = frame.payload;
  bad[8] = 200;  // count says 200, bytes say 1
  EXPECT_FALSE(ParseIngest(bad, &req));
  bad = frame.payload;
  bad.resize(11);  // truncated header
  EXPECT_FALSE(ParseIngest(bad, &req));
  EXPECT_TRUE(ParseIngest(frame.payload, &req));

  // Control: op out of range rejected.
  std::vector<uint8_t> cwire;
  EncodeControlTo(1, ControlOp::kStats, {}, &cwire);
  FrameDecoder cdecoder;
  ASSERT_TRUE(cdecoder.Append(cwire.data(), cwire.size()));
  ASSERT_EQ(cdecoder.Next(&frame), FrameDecoder::Result::kFrame);
  ControlRequest ctl;
  bad = frame.payload;
  bad[8] = kMaxControlOp + 1;
  EXPECT_FALSE(ParseControl(bad, &ctl));
  bad[8] = 0;
  EXPECT_FALSE(ParseControl(bad, &ctl));
  // Op 1, the retired fixed-block kStats, fails closed both ways.
  bad[8] = 1;
  EXPECT_FALSE(ParseControl(bad, &ctl));
  std::vector<uint8_t> result_wire;
  EncodeControlResultTo(1, ControlOp::kStats, ControlStatus::kOk,
                        std::vector<uint8_t>(13 * 8), &result_wire);
  ASSERT_TRUE(cdecoder.Append(result_wire.data(), result_wire.size()));
  Frame result_frame;
  ASSERT_EQ(cdecoder.Next(&result_frame), FrameDecoder::Result::kFrame);
  ControlResult res;
  ASSERT_TRUE(ParseControlResult(result_frame.payload, &res));
  result_frame.payload[8] = 1;
  EXPECT_FALSE(ParseControlResult(result_frame.payload, &res));
  EXPECT_TRUE(ParseControl(frame.payload, &ctl));

  // Alert: exact-size only.
  WireAlert alert;
  EXPECT_FALSE(ParseAlert(std::vector<uint8_t>(sizeof(WireAlert) - 1), &alert));
  EXPECT_FALSE(ParseAlert(std::vector<uint8_t>(sizeof(WireAlert) + 1), &alert));
}

TEST(NetProtocol, BufferStaysBoundedWhileDraining) {
  // Stream many frames through a small-cap decoder one byte at a time; the
  // internal buffer must never exceed one frame plus compaction slack.
  FrameDecoder::Options options;
  options.max_frame_bytes = 4096;
  FrameDecoder decoder(options);
  std::vector<uint8_t> wire;
  std::vector<Item> items(64);
  Rng rng(1);
  for (auto& item : items) item = Item{rng.Next(), 1.0};
  for (int f = 0; f < 50; ++f) EncodeIngestTo(f, items, &wire);

  size_t max_buffered = 0;
  Frame frame;
  for (uint8_t byte : wire) {
    ASSERT_TRUE(decoder.Append(&byte, 1));
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
    }
    max_buffered = std::max(max_buffered, decoder.buffered_bytes());
  }
  EXPECT_LE(max_buffered,
            options.max_frame_bytes + kFrameHeaderBytes + 4);
}

TEST(NetProtocol, FramesAppendedToOneBufferMatchSeparateEncodes) {
  // The server encodes every reply straight into a connection's write
  // queue, so many frames of mixed types land back-to-back in one growing
  // buffer. That must be byte-identical to encoding each frame alone, and
  // decode frame by frame in order.
  Rng rng(0xC0A1);
  constexpr int kFrames = 600;
  std::vector<uint8_t> shared;
  std::vector<uint8_t> concatenated;
  std::vector<FrameType> types;
  for (int i = 0; i < kFrames; ++i) {
    const uint64_t token = static_cast<uint64_t>(i);
    const uint64_t alert_key = rng.Next();
    std::vector<uint8_t> alone;
    const auto encode = [&](std::vector<uint8_t>* out) {
      switch (i % 6) {
        case 0:
          EncodeIngestAckTo(token, 32, 32 * token, out);
          break;
        case 1: {
          WireAlert alert;
          alert.seq = token;
          alert.key = alert_key;
          alert.value = 300.5;
          alert.shard = 3;
          EncodeAlertTo(alert, out);
          break;
        }
        case 2: {
          const std::vector<QueryAnswer> answers(i % 17,
                                                 QueryAnswer{7, 1});
          EncodeQueryResultTo(token, answers, out);
          break;
        }
        case 3: {
          const std::vector<uint8_t> payload(i % 41, 0xAB);
          EncodeControlResultTo(token, ControlOp::kStats, ControlStatus::kOk,
                                payload, out);
          break;
        }
        case 4: {
          const std::vector<Item> items(i % 9, Item{token, 1.5});
          EncodeIngestTo(token, items, out);
          break;
        }
        default:
          EncodeErrorTo(ErrorCode::kBadPayload, std::string(i % 23, 'e'),
                        out);
          break;
      }
    };
    encode(&shared);
    encode(&alone);
    concatenated.insert(concatenated.end(), alone.begin(), alone.end());
    FrameDecoder one;
    Frame frame;
    ASSERT_TRUE(one.Append(alone.data(), alone.size()));
    ASSERT_EQ(one.Next(&frame), FrameDecoder::Result::kFrame);
    types.push_back(frame.type);
  }
  EXPECT_EQ(shared, concatenated);

  FrameDecoder decoder;
  const std::vector<Frame> frames = DecodeChunked(shared, 4096, &decoder);
  ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(frames[i].type, types[i]) << "frame " << i;
    const uint64_t token = static_cast<uint64_t>(i);
    switch (frames[i].type) {
      case FrameType::kIngestAck: {
        IngestAck ack;
        ASSERT_TRUE(ParseIngestAck(frames[i].payload, &ack));
        EXPECT_EQ(ack.token, token);
        EXPECT_EQ(ack.total_items, 32 * token);
        break;
      }
      case FrameType::kAlert: {
        WireAlert alert;
        ASSERT_TRUE(ParseAlert(frames[i].payload, &alert));
        EXPECT_EQ(alert.seq, token);
        break;
      }
      case FrameType::kQueryResult: {
        QueryResult res;
        ASSERT_TRUE(ParseQueryResult(frames[i].payload, &res));
        EXPECT_EQ(res.token, token);
        EXPECT_EQ(res.answers.size(), static_cast<size_t>(i % 17));
        break;
      }
      case FrameType::kControlResult: {
        ControlResult res;
        ASSERT_TRUE(ParseControlResult(frames[i].payload, &res));
        EXPECT_EQ(res.token, token);
        EXPECT_EQ(res.payload.size(), static_cast<size_t>(i % 41));
        break;
      }
      case FrameType::kIngest: {
        IngestRequest req;
        ASSERT_TRUE(ParseIngest(frames[i].payload, &req));
        EXPECT_EQ(req.token, token);
        EXPECT_EQ(req.items.size(), static_cast<size_t>(i % 9));
        break;
      }
      case FrameType::kError: {
        ErrorFrame err;
        ASSERT_TRUE(ParseError(frames[i].payload, &err));
        EXPECT_EQ(err.message.size(), static_cast<size_t>(i % 23));
        break;
      }
      default:
        FAIL() << "unexpected frame type at " << i;
    }
  }
}

TEST(NetProtocol, RandomGarbageNeverCrashes) {
  Rng rng(0xFEED);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder::Options options;
    options.max_frame_bytes = 1 << 16;
    FrameDecoder decoder(options);
    std::vector<uint8_t> junk(rng.NextBounded(512) + 1);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    Frame frame;
    for (size_t pos = 0; pos < junk.size();) {
      const size_t n = std::min<size_t>(rng.NextBounded(16) + 1,
                                        junk.size() - pos);
      if (!decoder.Append(junk.data() + pos, n)) break;
      while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      }
      pos += n;
    }
  }
}

}  // namespace
}  // namespace qf::net
