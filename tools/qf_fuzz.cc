// qf_fuzz — differential fuzzing driver with deterministic replay.
//
// Modes:
//   qf_fuzz [--seeds=N] [--seed-base=S] [--ops=N] [--config=I] [--fault=F]
//       Run a seed matrix. Each seed regenerates a deterministic op schedule
//       and drives the full differential ensemble (scalar / batch / sharded
//       pipeline / oracles). On failure: prints a replay token, delta-debugs
//       the schedule to a minimal reproducer, and writes it as a corpus file
//       under --corpus-out. Exit code 1 iff any seed failed.
//   qf_fuzz --replay=TOKEN
//       Re-runs exactly the schedule a failure printed (validates the
//       op-schedule hash before running).
//   qf_fuzz --replay-file=PATH
//       Re-runs a corpus file (a minimized reproducer).
//   qf_fuzz --corpus=DIR
//       Replays every *.qfops file in DIR (regression mode for checked-in
//       reproducers; succeeds when the directory has none).
//   qf_fuzz --wire-iters=N [--wire-seed=S]
//       Wire-frame fuzz: feeds adversarial byte streams (random garbage,
//       header mutations, spliced/truncated valid frames) through the
//       net/protocol.h FrameDecoder and payload parsers — no sockets. The
//       decoder must never crash, over-read, or buffer beyond its cap;
//       violations exit non-zero. Each iteration also drives the cluster
//       coalescing path (cluster/coalesce.h): random client batches folded
//       through IngestFrameBuilder must round-trip bit-exactly through the
//       decoder + ParseIngest, and a mangled backend-ack schedule against
//       the CreditLedger must fail closed — every mismatched ack leaves the
//       ledger untouched and every credit is released exactly once, acked
//       or torn down. Run under ASan for the real guarantee.
//
// Config selection: --config=I pins one config; otherwise config = seed %
// #configs so a seed matrix covers the whole table. --list-configs prints it.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/coalesce.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/random.h"
#include "net/protocol.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "stream/item.h"
#include "testing/differential_harness.h"
#include "testing/minimizer.h"
#include "testing/op_stream.h"
#include "testing/replay_token.h"

namespace qf::testing {
namespace {

struct MatrixOptions {
  uint64_t seed_base = 0;
  uint64_t seeds = 8;
  uint64_t num_ops = 100000;
  int64_t config = -1;  // -1: derive from seed
  Fault fault = Fault::kNone;
  std::string corpus_out;
  size_t minimize_evals = 800;
};

const FuzzConfig& ConfigFor(const MatrixOptions& options, uint64_t seed) {
  const auto& configs = FuzzConfigs();
  const size_t idx = options.config >= 0
                         ? static_cast<size_t>(options.config)
                         : static_cast<size_t>(seed % configs.size());
  return configs[idx % configs.size()];
}

size_t ConfigIndex(const FuzzConfig& config) {
  const auto& configs = FuzzConfigs();
  for (size_t i = 0; i < configs.size(); ++i) {
    if (&configs[i] == &config) return i;
  }
  return 0;
}

void PrintResult(const ReplayToken& token, const FuzzConfig& config,
                 const FuzzResult& result) {
  std::printf("FAIL %s\n", FormatToken(token).c_str());
  std::printf("  config %zu (%s), fault %s\n", ConfigIndex(config),
              config.name, FaultName(static_cast<Fault>(token.fault)));
  std::printf("  op %zu: %s\n", result.failing_op, result.message.c_str());
  std::printf("  replay: qf_fuzz --replay=%s\n", FormatToken(token).c_str());
}

/// Minimizes a failing schedule and writes the reproducer. Returns the
/// corpus path (empty if writing was skipped/failed).
std::string MinimizeAndSave(const MatrixOptions& options,
                            const ReplayToken& token,
                            const FuzzConfig& config,
                            const std::vector<Op>& ops) {
  const uint64_t harness_seed = HarnessSeedFor(token.seed);
  const Fault fault = static_cast<Fault>(token.fault);
  MinimizeStats stats;
  const std::vector<Op> minimal = MinimizeOps(
      ops,
      [&](const std::vector<Op>& candidate) {
        return RunFuzzCase(config, fault, harness_seed, candidate).failed;
      },
      options.minimize_evals, &stats);
  std::printf("  minimized %zu -> %zu ops (%zu predicate evals)\n",
              stats.initial_ops, stats.final_ops, stats.predicate_evals);
  const FuzzResult minimal_result =
      RunFuzzCase(config, fault, harness_seed, minimal);
  std::printf("  minimal failure: op %zu: %s\n", minimal_result.failing_op,
              minimal_result.message.c_str());

  if (options.corpus_out.empty()) return {};
  std::error_code ec;
  std::filesystem::create_directories(options.corpus_out, ec);
  CorpusCase corpus;
  corpus.config = token.config;
  corpus.fault = token.fault;
  corpus.harness_seed = harness_seed;
  corpus.ops = minimal;
  char name[64];
  std::snprintf(name, sizeof(name), "min_s%016" PRIx64 "_h%016" PRIx64
                ".qfops", token.seed, token.schedule_hash);
  const std::string path =
      (std::filesystem::path(options.corpus_out) / name).string();
  if (!WriteCorpusFile(path, corpus)) {
    std::printf("  (failed to write corpus file %s)\n", path.c_str());
    return {};
  }
  std::printf("  reproducer written: %s (replay with --replay-file)\n",
              path.c_str());
  return path;
}

int RunMatrix(const MatrixOptions& options) {
  int failures = 0;
  for (uint64_t s = 0; s < options.seeds; ++s) {
    const uint64_t seed = options.seed_base + s;
    const FuzzConfig& config = ConfigFor(options, seed);
    const std::vector<uint8_t> bytes = GenerateOpBytes(seed, options.num_ops);
    const std::vector<Op> ops = DecodeOps(bytes);
    ReplayToken token;
    token.config = static_cast<uint32_t>(ConfigIndex(config));
    token.fault = static_cast<uint32_t>(options.fault);
    token.seed = seed;
    token.num_ops = options.num_ops;
    token.schedule_hash = ScheduleHash(bytes);
    const FuzzResult result =
        RunFuzzCase(config, options.fault, HarnessSeedFor(seed), ops);
    if (!result.failed) {
      std::printf("ok   %s (config %u %s, %" PRIu64 " ops)\n",
                  FormatToken(token).c_str(), token.config, config.name,
                  options.num_ops);
      continue;
    }
    ++failures;
    PrintResult(token, config, result);
    MinimizeAndSave(options, token, config, ops);
  }
  if (failures > 0) {
    std::printf("%d of %" PRIu64 " seeds FAILED\n", failures, options.seeds);
    return 1;
  }
  std::printf("all %" PRIu64 " seeds clean\n", options.seeds);
  return 0;
}

int ReplayTokenMode(const std::string& text, Fault fault_override,
                    bool has_fault_override) {
  ReplayToken token;
  if (!ParseToken(text, &token)) {
    std::fprintf(stderr, "malformed replay token: %s\n", text.c_str());
    return 2;
  }
  const auto& configs = FuzzConfigs();
  if (token.config >= configs.size() || token.fault >= kNumFaults) {
    std::fprintf(stderr, "token names an unknown config or fault\n");
    return 2;
  }
  const std::vector<uint8_t> bytes =
      GenerateOpBytes(token.seed, token.num_ops);
  if (ScheduleHash(bytes) != token.schedule_hash) {
    std::fprintf(stderr,
                 "op-schedule hash mismatch: the generator/decoder changed "
                 "since this token was minted; refusing to replay a "
                 "different schedule\n");
    return 2;
  }
  const Fault fault = has_fault_override ? fault_override
                                         : static_cast<Fault>(token.fault);
  const FuzzConfig& config = configs[token.config];
  const FuzzResult result = RunFuzzCase(config, fault, HarnessSeedFor(token.seed),
                                        DecodeOps(bytes));
  if (result.failed) {
    PrintResult(token, config, result);
    return 1;
  }
  std::printf("replay clean: %s\n", FormatToken(token).c_str());
  return 0;
}

int ReplayFile(const std::string& path) {
  CorpusCase corpus;
  if (!ReadCorpusFile(path, &corpus)) {
    std::fprintf(stderr, "cannot read corpus file: %s\n", path.c_str());
    return 2;
  }
  const auto& configs = FuzzConfigs();
  if (corpus.config >= configs.size() || corpus.fault >= kNumFaults) {
    std::fprintf(stderr, "corpus file names an unknown config or fault: %s\n",
                 path.c_str());
    return 2;
  }
  const FuzzResult result =
      RunFuzzCase(configs[corpus.config], static_cast<Fault>(corpus.fault),
                  corpus.harness_seed, corpus.ops);
  if (result.failed) {
    std::printf("FAIL %s\n  op %zu: %s\n", path.c_str(), result.failing_op,
                result.message.c_str());
    return 1;
  }
  std::printf("clean %s (%zu ops)\n", path.c_str(), corpus.ops.size());
  return 0;
}

int ReplayCorpusDir(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::printf("corpus directory %s does not exist; nothing to replay\n",
                dir.c_str());
    return 0;
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".qfops") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  int failures = 0;
  for (const std::string& file : files) {
    if (ReplayFile(file) != 0) ++failures;
  }
  std::printf("%zu corpus file(s), %d failure(s)\n", files.size(), failures);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Wire-frame fuzz mode (DESIGN.md §11): the protocol decoder is pure
// in-memory code, so it fuzzes without sockets.

/// Routes a decoded frame's payload through its typed parser; outputs are
/// ignored — the property under test is memory safety, not semantics.
void ParseDecodedFrame(const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kIngest: {
      net::IngestRequest r;
      net::ParseIngest(frame.payload, &r);
      return;
    }
    case net::FrameType::kIngestAck: {
      net::IngestAck r;
      net::ParseIngestAck(frame.payload, &r);
      return;
    }
    case net::FrameType::kQuery: {
      net::QueryRequest r;
      net::ParseQuery(frame.payload, &r);
      return;
    }
    case net::FrameType::kQueryResult: {
      net::QueryResult r;
      net::ParseQueryResult(frame.payload, &r);
      return;
    }
    case net::FrameType::kSubscribe: {
      net::SubscribeRequest r;
      net::ParseSubscribe(frame.payload, &r);
      return;
    }
    case net::FrameType::kControl: {
      net::ControlRequest r;
      net::ParseControl(frame.payload, &r);
      // Cluster CONTROL op payloads (§16): each parser must fail closed on
      // arbitrary bytes regardless of which op the frame declared.
      net::MigrateRequest mig;
      net::ParseMigratePayload(r.op_payload, &mig);
      net::ShardExportRequest exp_req;
      net::ParseShardExportRequest(r.op_payload, &exp_req);
      net::ShardImport imp;
      net::ParseShardImportPayload(r.op_payload, &imp);
      net::ShardActivateRequest act;
      net::ParseShardActivateRequest(r.op_payload, &act);
      net::SegmentShipRequest ship;
      net::ParseSegmentShipRequest(r.op_payload, &ship);
      return;
    }
    case net::FrameType::kControlResult: {
      net::ControlResult r;
      net::ParseControlResult(frame.payload, &r);
      // The embedded payload as a metrics snapshot (CONTROL kStats and
      // kMetrics, §15): the parser must fail closed on anything that isn't
      // an intact QFMS blob — never crash, never over-allocate — and the
      // stats projection on whatever snapshot it accepts.
      obs::MetricsSnapshot snap;
      net::WireStats stats;
      if (net::ParseMetricsPayload(r.payload, &snap)) {
        net::WireStatsFromMetrics(snap, &stats, nullptr);
      }
      // And as every cluster CONTROL reply shape (§16): topology tables,
      // shard-state blobs, shipped WAL segments.
      net::WireTopology topo;
      net::ParseTopologyPayload(r.payload, &topo);
      net::ShardExport exp;
      net::ParseShardExportPayload(r.payload, &exp);
      net::SegmentShipResult ship;
      net::ParseSegmentShipPayload(r.payload, &ship);
      return;
    }
    case net::FrameType::kAlert: {
      net::WireAlert r;
      net::ParseAlert(frame.payload, &r);
      return;
    }
    case net::FrameType::kError: {
      net::ErrorFrame r;
      net::ParseError(frame.payload, &r);
      return;
    }
  }
}

/// One deterministic adversarial byte stream. Three strategies, weighted
/// toward structure so the fuzz reaches past the header checks: pure
/// garbage, valid frames (every type, random payloads), and valid frames
/// mangled by bit flips / truncation / splices.
std::vector<uint8_t> GenerateWireStream(Rng& rng) {
  std::vector<uint8_t> stream;
  const uint64_t strategy = rng.NextBounded(4);
  if (strategy == 0) {
    const size_t len = static_cast<size_t>(rng.NextBounded(4096));
    stream.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      stream.push_back(static_cast<uint8_t>(rng.Next()));
    }
    return stream;
  }
  // Valid-ish frames: random declared type, random payload bytes — typed
  // encoders for INGEST some of the time so the item fast path is hit, and
  // for CONTROL_RESULT(kMetrics) so the mangling strategies below corrupt
  // real QFMS snapshots (truncation / bit flips inside names, counts,
  // bucket indices), not just random bytes.
  const uint64_t frames = 1 + rng.NextBounded(6);
  for (uint64_t f = 0; f < frames; ++f) {
    const uint64_t pick = rng.NextBounded(8);
    if (pick < 2) {
      std::vector<Item> items(static_cast<size_t>(rng.NextBounded(64)));
      for (Item& item : items) {
        item.key = rng.Next();
        item.value = rng.NextDouble();
      }
      net::EncodeIngestTo(rng.Next(), items, &stream);
    } else if (pick == 2) {
      obs::MetricsSnapshot snap;
      snap.wall_ns = rng.Next();
      snap.mono_ns = rng.Next();
      const uint64_t counters = rng.NextBounded(4);
      for (uint64_t i = 0; i < counters; ++i) {
        obs::CounterSample c;
        c.name = "qf_fuzz_counter_" + std::to_string(i);
        c.value = rng.Next();
        snap.counters.push_back(std::move(c));
      }
      const uint64_t gauges = rng.NextBounded(3);
      for (uint64_t i = 0; i < gauges; ++i) {
        obs::GaugeSample g;
        g.name = "qf_fuzz_gauge_" + std::to_string(i);
        g.value = static_cast<int64_t>(rng.Next());
        snap.gauges.push_back(std::move(g));
      }
      const uint64_t hists = rng.NextBounded(3);
      for (uint64_t i = 0; i < hists; ++i) {
        obs::HistogramSample h;
        h.name = "qf_fuzz_hist_" + std::to_string(i);
        const uint64_t records = rng.NextBounded(64);
        for (uint64_t r = 0; r < records; ++r) {
          h.data.Record(rng.NextBounded(1 << 20));
        }
        snap.histograms.push_back(std::move(h));
      }
      std::vector<uint8_t> payload;
      net::EncodeMetricsPayloadTo(snap, &payload);
      net::EncodeControlResultTo(rng.Next(), net::ControlOp::kMetrics,
                                 net::ControlStatus::kOk, payload, &stream);
    } else if (pick == 3) {
      // Valid cluster frames (§16) so bit flips and truncation below hit
      // real topology tables, shard blobs, and shipped segments — the
      // length-prefixed variable sections are where parsers go wrong.
      std::vector<uint8_t> payload;
      switch (rng.NextBounded(4)) {
        case 0: {
          net::WireTopology topo;
          topo.epoch = rng.Next();
          const uint64_t backends = 1 + rng.NextBounded(4);
          for (uint64_t b = 0; b < backends; ++b) {
            net::WireBackend wb;
            wb.addr = "127.0.0.1:" + std::to_string(7000 + b);
            wb.state = static_cast<net::BackendState>(rng.NextBounded(3));
            topo.backends.push_back(std::move(wb));
          }
          const uint64_t slots = 1 + rng.NextBounded(16);
          for (uint64_t s = 0; s < slots; ++s) {
            topo.owner.push_back(
                static_cast<uint32_t>(rng.NextBounded(backends)));
          }
          net::EncodeTopologyPayloadTo(topo, &payload);
          net::EncodeControlResultTo(rng.Next(), net::ControlOp::kTopology,
                                     net::ControlStatus::kOk, payload,
                                     &stream);
          break;
        }
        case 1: {
          net::ShardExport exp;
          exp.shard = static_cast<uint32_t>(rng.NextBounded(16));
          exp.wal_enabled = rng.NextBounded(2) != 0;
          exp.wal_gen = rng.Next();
          exp.snap_seq = rng.Next();
          for (uint64_t& w : exp.rng) w = rng.Next();
          exp.blob.resize(static_cast<size_t>(rng.NextBounded(256)));
          for (uint8_t& b : exp.blob) b = static_cast<uint8_t>(rng.Next());
          net::EncodeShardExportPayloadTo(exp, &payload);
          net::EncodeControlResultTo(rng.Next(),
                                     net::ControlOp::kShardExport,
                                     net::ControlStatus::kOk, payload,
                                     &stream);
          break;
        }
        case 2: {
          net::SegmentShipResult res;
          res.next_after = rng.Next();
          res.exhausted = rng.NextBounded(2) != 0;
          res.items.resize(static_cast<size_t>(rng.NextBounded(64)));
          for (Item& item : res.items) {
            item.key = rng.Next();
            item.value = rng.NextDouble();
          }
          net::EncodeSegmentShipPayloadTo(res, &payload);
          net::EncodeControlResultTo(rng.Next(),
                                     net::ControlOp::kSegmentShip,
                                     net::ControlStatus::kOk, payload,
                                     &stream);
          break;
        }
        default: {
          net::MigrateRequest mig;
          mig.slot = static_cast<uint32_t>(rng.Next());
          mig.target_backend = static_cast<uint32_t>(rng.Next());
          net::EncodeMigratePayloadTo(mig, &payload);
          net::EncodeControlTo(rng.Next(), net::ControlOp::kMigrate,
                               payload, &stream);
          break;
        }
      }
    } else {
      const auto type =
          static_cast<net::FrameType>(1 + rng.NextBounded(net::kMaxFrameType));
      std::vector<uint8_t> payload(static_cast<size_t>(rng.NextBounded(512)));
      for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
      net::AppendFrameTo(type, payload, &stream);
    }
  }
  if (strategy >= 2 && !stream.empty()) {
    // Mangle: flip a few bytes (lengths, versions, types, payload alike)...
    const uint64_t flips = 1 + rng.NextBounded(8);
    for (uint64_t i = 0; i < flips; ++i) {
      stream[static_cast<size_t>(rng.NextBounded(stream.size()))] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    // ...and sometimes truncate mid-frame (partial-input paths).
    if (strategy == 3) {
      stream.resize(1 + static_cast<size_t>(rng.NextBounded(stream.size())));
    }
  }
  return stream;
}

/// One round of coalescing-plane fuzz (cluster/coalesce.h): build a
/// coalesced INGEST frame from random client batches and require a
/// bit-exact round trip through the wire decoder, then drive the credit
/// ledger with a schedule of correct and mangled acks and check it fails
/// closed without double-releasing any credit.
bool FuzzCoalesceRound(Rng& rng, uint64_t* frames_decoded) {
  using cluster::CreditLedger;
  using cluster::IngestFrameBuilder;

  // --- builder round trip -------------------------------------------------
  IngestFrameBuilder builder;
  std::vector<Item> expect;
  const uint64_t batches = rng.NextBounded(6);
  for (uint64_t b = 0; b < batches; ++b) {
    std::vector<Item> batch(static_cast<size_t>(rng.NextBounded(40)));
    for (Item& item : batch) {
      item.key = rng.Next();
      item.value = rng.NextDouble();
    }
    if (rng.NextBounded(2) == 0) {
      builder.AppendItems(batch);
    } else {
      // The coordinator's actual call shape: raw record bytes, split at an
      // arbitrary point as if a flush landed mid-client-frame.
      const auto* raw = reinterpret_cast<const uint8_t*>(batch.data());
      const size_t split = static_cast<size_t>(
          batch.empty() ? 0 : rng.NextBounded(batch.size() + 1));
      builder.AppendRecords(raw, split);
      builder.AppendRecords(raw + split * sizeof(Item),
                            batch.size() - split);
    }
    expect.insert(expect.end(), batch.begin(), batch.end());
  }
  if (builder.items() != expect.size()) {
    std::fprintf(stderr, "coalesce fuzz: builder items %u != %zu\n",
                 builder.items(), expect.size());
    return false;
  }
  if (!expect.empty()) {
    const uint64_t token = rng.Next();
    const std::vector<uint8_t> frame = builder.Finish(token);
    if (!builder.empty() || builder.bytes() != 0) {
      std::fprintf(stderr, "coalesce fuzz: builder not empty post-Finish\n");
      return false;
    }
    net::FrameDecoder decoder;
    net::Frame decoded;
    if (!decoder.Append(frame.data(), frame.size()) ||
        decoder.Next(&decoded) != net::FrameDecoder::Result::kFrame ||
        decoded.type != net::FrameType::kIngest) {
      std::fprintf(stderr, "coalesce fuzz: built frame did not decode\n");
      return false;
    }
    ++*frames_decoded;
    net::IngestRequest parsed;
    if (!net::ParseIngest(decoded.payload, &parsed) ||
        parsed.token != token || parsed.items.size() != expect.size() ||
        std::memcmp(parsed.items.data(), expect.data(),
                    expect.size() * sizeof(Item)) != 0) {
      std::fprintf(stderr, "coalesce fuzz: round trip mismatch\n");
      return false;
    }
  }

  // --- ledger ack schedule ------------------------------------------------
  // Credits are ids into a release counter; the invariant is each id comes
  // out exactly once (via a matched ack or teardown), never twice.
  CreditLedger<uint64_t> ledger;
  std::vector<uint32_t> released;
  std::deque<std::pair<uint64_t, uint32_t>> sent;  // expected {token, items}
  uint64_t next_credit = 0;
  uint64_t next_token = 1;
  const uint64_t pushes = 1 + rng.NextBounded(8);
  for (uint64_t p = 0; p < pushes; ++p) {
    std::vector<uint64_t> credits(1 + rng.NextBounded(4));
    for (uint64_t& c : credits) {
      c = next_credit++;
      released.push_back(0);
    }
    const uint32_t items = 1 + static_cast<uint32_t>(rng.NextBounded(512));
    const uint64_t token = next_token++;
    ledger.Push(token, items, std::move(credits));
    sent.emplace_back(token, items);
  }
  const uint64_t acks = rng.NextBounded(2 * pushes + 2);
  for (uint64_t a = 0; a < acks && !sent.empty(); ++a) {
    uint64_t token = sent.front().first;
    uint32_t items = sent.front().second;
    const bool mangle = rng.NextBounded(3) == 0;
    if (mangle) {
      if (rng.NextBounded(2) == 0) {
        token ^= 1ull << rng.NextBounded(64);
      } else {
        items ^= 1u << rng.NextBounded(32);
      }
    }
    const size_t depth_before = ledger.depth();
    const uint64_t queued_before = ledger.queued_items();
    std::vector<uint64_t> out;
    const auto result = ledger.Ack(token, items, &out);
    const bool matched = token == sent.front().first &&
                         items == sent.front().second;
    if (matched != (result == CreditLedger<uint64_t>::AckResult::kOk)) {
      std::fprintf(stderr, "coalesce fuzz: ack verdict wrong\n");
      return false;
    }
    if (!matched) {
      // Fail closed: a refused ack must leave the ledger untouched.
      if (ledger.depth() != depth_before ||
          ledger.queued_items() != queued_before) {
        std::fprintf(stderr, "coalesce fuzz: mismatch mutated ledger\n");
        return false;
      }
      continue;
    }
    sent.pop_front();
    for (const uint64_t credit : out) {
      if (++released[static_cast<size_t>(credit)] > 1) {
        std::fprintf(stderr, "coalesce fuzz: credit %" PRIu64
                             " double-released by ack\n",
                     credit);
        return false;
      }
    }
  }
  // Teardown (FailBackend): every still-queued credit exactly once.
  for (auto& entry : ledger.TakeAll()) {
    for (const uint64_t credit : entry.credits) {
      if (++released[static_cast<size_t>(credit)] > 1) {
        std::fprintf(stderr, "coalesce fuzz: credit %" PRIu64
                             " double-released by teardown\n",
                     credit);
        return false;
      }
    }
  }
  if (ledger.depth() != 0 || ledger.queued_items() != 0) {
    std::fprintf(stderr, "coalesce fuzz: ledger not empty after TakeAll\n");
    return false;
  }
  for (size_t c = 0; c < released.size(); ++c) {
    if (released[c] != 1) {
      std::fprintf(stderr,
                   "coalesce fuzz: credit %zu released %u times\n", c,
                   released[c]);
      return false;
    }
  }
  return true;
}

int RunWireFuzz(uint64_t iters, uint64_t seed) {
  net::FrameDecoder::Options dopts;
  dopts.max_frame_bytes = 64 * 1024;  // small cap: overflow bugs surface fast
  // The documented buffering bound; exceeding it is a fuzz failure even
  // when nothing crashes.
  const size_t buffer_cap =
      dopts.max_frame_bytes + net::kFrameHeaderBytes + 4;

  Rng rng(Mix64(seed ^ 0x51F0D3C0DEULL));
  uint64_t frames_decoded = 0;
  uint64_t streams_poisoned = 0;
  for (uint64_t it = 0; it < iters; ++it) {
    const std::vector<uint8_t> stream = GenerateWireStream(rng);
    net::FrameDecoder decoder(dopts);
    size_t off = 0;
    bool poisoned = false;
    while (off < stream.size() && !poisoned) {
      // Adversarial chunking: 1-byte dribbles through jumbo writes.
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(1 + rng.NextBounded(997), stream.size() - off));
      if (!decoder.Append(stream.data() + off, chunk)) {
        poisoned = true;
        break;
      }
      off += chunk;
      net::Frame frame;
      while (decoder.Next(&frame) == net::FrameDecoder::Result::kFrame) {
        ++frames_decoded;
        ParseDecodedFrame(frame);
      }
      if (decoder.poisoned()) {
        poisoned = true;
        break;
      }
      if (decoder.buffered_bytes() > buffer_cap) {
        std::fprintf(stderr,
                     "wire fuzz: iteration %" PRIu64
                     " buffered %zu bytes (cap %zu) — unbounded buffering\n",
                     it, decoder.buffered_bytes(), buffer_cap);
        return 1;
      }
    }
    if (poisoned) ++streams_poisoned;
    if (!FuzzCoalesceRound(rng, &frames_decoded)) {
      std::fprintf(stderr,
                   "wire fuzz: coalesce round failed at iteration %" PRIu64
                   " (seed %" PRIu64 ")\n",
                   it, seed);
      return 1;
    }
  }
  std::printf("wire fuzz: %" PRIu64 " streams clean (%" PRIu64
              " frames decoded, %" PRIu64 " streams poisoned, "
              "coalesce rounds clean)\n",
              iters, frames_decoded, streams_poisoned);
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("list-configs", false)) {
    const auto& configs = FuzzConfigs();
    for (size_t i = 0; i < configs.size(); ++i) {
      std::printf("%zu: %s (%zu bytes, %d shards, universe %u%s%s)\n", i,
                  configs[i].name, configs[i].memory_bytes,
                  configs[i].num_shards, configs[i].key_universe,
                  configs[i].exact_regime ? ", exact" : "",
                  configs[i].use_exact_detector ? "+oracle" : "");
    }
    return 0;
  }

  MatrixOptions options;
  options.seed_base =
      static_cast<uint64_t>(flags.GetInt("seed-base", 0));
  options.seeds = static_cast<uint64_t>(flags.GetInt("seeds", 8));
  options.num_ops = static_cast<uint64_t>(flags.GetInt("ops", 100000));
  options.config = flags.GetInt("config", -1);
  options.corpus_out = flags.GetString("corpus-out", "corpus");
  options.minimize_evals =
      static_cast<size_t>(flags.GetInt("minimize-evals", 800));
  const std::string fault_name = flags.GetString("fault", "none");
  bool has_fault = flags.Has("fault");
  if (!ParseFault(fault_name, &options.fault)) {
    std::fprintf(stderr,
                 "unknown --fault=%s (none, drop-batch-item, "
                 "reorder-batch-splits, no-tag-reject)\n",
                 fault_name.c_str());
    return 2;
  }

  const std::string replay = flags.GetString("replay", "");
  const std::string replay_file = flags.GetString("replay-file", "");
  const std::string corpus = flags.GetString("corpus", "");
  const uint64_t wire_iters =
      static_cast<uint64_t>(flags.GetInt("wire-iters", 0));
  const uint64_t wire_seed =
      static_cast<uint64_t>(flags.GetInt("wire-seed", 1));
  // One final filter-health snapshot (JSON line) after the run: the fuzz
  // ensembles drive real filters/pipelines, so their qf_* counters make a
  // useful smoke signal for the metrics plumbing itself.
  const std::string metrics_json = flags.GetString("metrics-json", "");

  const auto unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    for (const std::string& f : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    }
    return 2;
  }

  int rc;
  if (wire_iters > 0) {
    rc = RunWireFuzz(wire_iters, wire_seed);
  } else if (!replay.empty()) {
    rc = ReplayTokenMode(replay, options.fault, has_fault);
  } else if (!replay_file.empty()) {
    rc = ReplayFile(replay_file);
  } else if (!corpus.empty()) {
    rc = ReplayCorpusDir(corpus);
  } else {
    rc = RunMatrix(options);
  }

  if (!metrics_json.empty()) {
    obs::MetricsSink sink(
        [] { return obs::MetricsRegistry::Global().Snapshot(); },
        {metrics_json, "", 1000});
    if (!sink.WriteOnce()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                   metrics_json.c_str());
    }
  }
  return rc;
}

}  // namespace
}  // namespace qf::testing

int main(int argc, char** argv) { return qf::testing::Main(argc, argv); }
