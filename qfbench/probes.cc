#include "probes.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/quantile_filter.h"
#include "core/sharded_filter.h"
#include "durable/log.h"
#include "durable/storage.h"
#include "harness.h"
#include "net/protocol.h"
#include "parallel/pipeline.h"

namespace qfbench {
namespace {

// Keeps probe results observable so the compiler cannot drop the calls.
std::atomic<uint64_t> g_sink{0};

constexpr size_t kMaxQueryProbeKeys = 1u << 20;
constexpr size_t kMaxDurableItems = 2u << 20;
constexpr size_t kItemsPerSync = 8192;

double PerMillion(uint64_t count, size_t items) {
  return static_cast<double>(count) * 1e6 / static_cast<double>(items);
}

}  // namespace

void CoreProbe(const Inputs& in, LayerMetrics* m) {
  PhaseScope phase("core probe", 60.0);
  auto opts = FilterOptions();
  opts.memory_bytes = kMemoryBytes / kShards;
  qf::QuantileFilter<> filter(opts, in.criteria);
  uint64_t insert_ns = 0;
  for (size_t f = 0; f < in.frames(); ++f) {
    SpanScope root("loadgen.frame", nullptr, f);
    SpanScope span("core.insert_batch", "loadgen.frame", f);
    const uint64_t t = MonotonicNanos();
    filter.InsertBatch(in.Frame(f));
    insert_ns += MonotonicNanos() - t;
  }
  const auto& st = filter.stats();
  const double items = static_cast<double>(st.items);
  (*m)["core.insert_ns_per_item"] = insert_ns / items;
  (*m)["core.candidate_hit_ratio"] = st.candidate_hits / items;
  (*m)["core.swap_ratio"] = st.swaps / items;

  const size_t keys = std::min(in.support.size(), kMaxQueryProbeKeys);
  uint64_t acc = 0;
  const uint64_t t = MonotonicNanos();
  {
    SpanScope span("core.query", nullptr, 0);
    for (size_t i = 0; i < keys; ++i) {
      acc += static_cast<uint64_t>(filter.QueryQweight(in.support[i]));
    }
  }
  (*m)["core.query_ns_per_key"] =
      static_cast<double>(MonotonicNanos() - t) / static_cast<double>(keys);
  g_sink.fetch_add(acc, std::memory_order_relaxed);
}

void ParallelProbe(const Inputs& in, LayerMetrics* m) {
  PhaseScope phase("parallel probe", 60.0);
  using Pipeline = qf::IngestPipeline<>;
  qf::ShardedQuantileFilter<> filter(FilterOptions(), in.criteria, kShards);
  Pipeline::Options po;
  po.ring_batches = 1024;
  Pipeline p(filter, po);
  p.Start();
  std::atomic<bool> stop{false};
  Samples query_us;
  std::thread queries([&] {
    std::vector<Pipeline::QueryAnswer> ans(in.hot_keys.size());
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t t = MonotonicNanos();
      p.QueryBatch(in.hot_keys, ans.data());
      query_us.Add(static_cast<double>(MonotonicNanos() - t) / 1e3);
    }
  });
  uint64_t push_ns = 0;
  for (size_t f = 0; f < in.frames(); ++f) {
    SpanScope root("loadgen.frame", nullptr, f);
    SpanScope span("parallel.push_batch", "loadgen.frame", f);
    const uint64_t t = MonotonicNanos();
    p.PushBatch(in.Frame(f));
    push_ns += MonotonicNanos() - t;
  }
  const uint64_t tf = MonotonicNanos();
  {
    SpanScope span("parallel.fence", nullptr, in.frames());
    p.Fence();
  }
  const double fence_us = static_cast<double>(MonotonicNanos() - tf) / 1e3;
  stop.store(true, std::memory_order_release);
  queries.join();
  p.Stop();
  const auto t = p.totals();
  const size_t n = in.trace.size();
  if (t.items_processed != n) {
    Fail("conservation", "parallel probe processed " +
                             std::to_string(t.items_processed) + " of " +
                             std::to_string(n));
  }
  double mx = 0, sum = 0;
  for (int s = 0; s < kShards; ++s) {
    const double v = static_cast<double>(p.shard_items(s));
    mx = std::max(mx, v);
    sum += v;
  }
  (*m)["parallel.push_ns_per_item"] = static_cast<double>(push_ns) / n;
  (*m)["parallel.fence_us"] = fence_us;
  (*m)["parallel.shard_skew"] = mx * kShards / sum;
  (*m)["parallel.ring_full_waits_per_mitem"] = PerMillion(t.ring_full_waits, n);
  (*m)["parallel.producer_parks_per_mitem"] = PerMillion(t.producer_parks, n);
  (*m)["parallel.query_batch_us_p50"] = query_us.Quantile(0.5);
  (*m)["parallel.query_batch_us_p99"] = query_us.Quantile(0.99);
}

void DurableProbe(const Inputs& in, LayerMetrics* m) {
  PhaseScope phase("durable probe", 90.0);
  ScratchDir dir("durable-probe");
  qf::durable::FsStorage storage(dir.path());
  if (!storage.ok()) Fail("durable probe", storage.error());
  qf::durable::WalOptions wo;
  wo.fsync = qf::durable::FsyncMode::kGroup;
  qf::durable::WalWriter wal(&storage, wo);
  if (!wal.Init(1, 1)) Fail("durable probe", "WalWriter::Init failed");
  const size_t frames_per_sync =
      std::max<size_t>(1, kItemsPerSync / in.spec->frame_items);
  uint64_t append_ns = 0;
  size_t items = 0;
  Samples sync_us;
  const auto sync = [&](size_t f) {
    SpanScope span("durable.sync", nullptr, f);
    const uint64_t t = MonotonicNanos();
    if (!wal.Sync()) Fail("durable probe", "WalWriter::Sync failed");
    sync_us.Add(static_cast<double>(MonotonicNanos() - t) / 1e3);
  };
  size_t f = 0;
  for (; f < in.frames() && items < kMaxDurableItems; ++f) {
    SpanScope root("loadgen.frame", nullptr, f);
    uint64_t seq = 0;
    {
      SpanScope span("durable.append", "loadgen.frame", f);
      const uint64_t t = MonotonicNanos();
      if (!wal.Append(in.Frame(f), &seq)) {
        Fail("durable probe", "WalWriter::Append failed");
      }
      append_ns += MonotonicNanos() - t;
    }
    items += in.Frame(f).size();
    if ((f + 1) % frames_per_sync == 0) sync(f);
  }
  sync(f);
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  (*m)["durable.append_ns_per_item"] = static_cast<double>(append_ns) / items;
  (*m)["durable.bytes_per_item"] = static_cast<double>(bytes) / items;
  (*m)["durable.sync_us_p50"] = sync_us.Quantile(0.5);
  (*m)["durable.sync_us_p99"] = sync_us.Quantile(0.99);
}

void CodecProbe(const Inputs& in, LayerMetrics* m) {
  PhaseScope phase("codec probe", 60.0);
  std::vector<uint8_t> wire;
  wire.reserve(in.trace.size() * sizeof(qf::Item) + in.frames() * 32);
  uint64_t encode_ns = 0;
  for (size_t f = 0; f < in.frames(); ++f) {
    SpanScope span("net.encode", nullptr, f);
    const uint64_t t = MonotonicNanos();
    qf::net::EncodeIngestTo(f + 1, in.Frame(f), &wire);
    encode_ns += MonotonicNanos() - t;
  }
  // Decode in socket-read-sized chunks, as a reactor sees the stream.
  constexpr size_t kChunk = 64 << 10;
  qf::net::FrameDecoder dec;
  qf::net::IngestRequest req;
  size_t decoded = 0, frame = 0;
  const uint64_t t = MonotonicNanos();
  {
    SpanScope span("net.decode", nullptr, 0);
    for (size_t off = 0; off < wire.size(); off += kChunk) {
      const size_t len = std::min(kChunk, wire.size() - off);
      if (!dec.Append(wire.data() + off, len)) Fail("codec", dec.error());
      qf::net::FrameView fv;
      while (dec.NextView(&fv) == qf::net::FrameDecoder::Result::kFrame) {
        if (fv.type != qf::net::FrameType::kIngest ||
            !qf::net::ParseIngest(fv.payload, &req) || req.token != ++frame) {
          Fail("codec", "INGEST frame did not round-trip");
        }
        decoded += req.items.size();
      }
    }
  }
  const uint64_t decode_ns = MonotonicNanos() - t;
  if (decoded != in.trace.size()) {
    Fail("codec", "decoded " + std::to_string(decoded) + " of " +
                      std::to_string(in.trace.size()) + " items");
  }
  const double n = static_cast<double>(in.trace.size());
  (*m)["net.encode_ns_per_item"] = encode_ns / n;
  (*m)["net.decode_ns_per_item"] = decode_ns / n;
}

}  // namespace qfbench
