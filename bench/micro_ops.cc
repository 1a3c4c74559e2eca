// Operation-level microbenchmarks (google-benchmark) for every detector and
// substrate sketch: per-item insert cost on a realistic skewed stream, and
// the point operations (query, delete) of QuantileFilter.

#include <benchmark/benchmark.h>

#include "baseline/hist_sketch.h"
#include "baseline/sketch_polymer.h"
#include "baseline/squad.h"
#include "common/random.h"
#include "common/time.h"
#include "common/zipf.h"
#include "core/naive_filter.h"
#include "core/quantile_filter.h"
#include "obs/instrument.h"
#include "quantile/ddsketch.h"
#include "quantile/gk.h"
#include "quantile/kll.h"
#include "quantile/tdigest.h"
#include "sketch/blocked_count_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/space_saving.h"
#include "sketch/tower_sketch.h"

namespace qf {
namespace {

constexpr size_t kStreamLen = 1 << 16;

// Pre-generated skewed key/value stream shared by the insert benchmarks.
struct Workload {
  std::vector<uint64_t> keys;
  std::vector<double> values;
  Workload() {
    Rng rng(1);
    ZipfSampler zipf(100000, 1.0);
    keys.resize(kStreamLen);
    values.resize(kStreamLen);
    for (size_t i = 0; i < kStreamLen; ++i) {
      keys[i] = zipf.Sample(rng);
      values[i] = rng.Bernoulli(0.08) ? 500.0 : 50.0;
    }
  }
};

const Workload& SharedWorkload() {
  static const Workload* w = new Workload();
  return *w;
}

void BM_QuantileFilterInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  DefaultQuantileFilter::Options o;
  o.memory_bytes = static_cast<size_t>(state.range(0));
  DefaultQuantileFilter filter(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileFilterInsert)->Arg(1 << 16)->Arg(1 << 20);

// QF_METRICS overhead gate: tools/check_metrics_overhead.sh builds this
// benchmark twice (metrics ON and OFF), runs this fixture in both binaries
// and asserts the per-insert delta stays under the 3% budget. The
// `qf_metrics` counter lets the script verify each binary's actual mode
// instead of trusting its own build flags.
//
// The metrics=ON leg runs with stage spans AND trace sampling enabled
// (DESIGN.md §15): every 32 inserts — one worst-case minimum-size span — it
// replays the marginal per-span work ProcessSpan adds: the 1-in-4 sampled
// pair of stage-histogram records and the 1-in-64 sampled TraceRing emit.
// The recorded values are loop-derived rather than re-clocked because the
// real path reuses the t0/dur timestamps it already takes for the
// pre-existing qf_pipeline_ingest_batch_ns series; the marginal cost of the
// stage spans is the records and the sample decisions, not the clock.
void BM_QuantileFilterInsertMetricsGate(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  DefaultQuantileFilter::Options o;
  o.memory_bytes = 1 << 18;
  DefaultQuantileFilter filter(o, Criteria(30, 0.95, 300));
#if QF_METRICS
  obs::TraceRing::Global().Enable();
  obs::StageMetrics& stm = obs::StageMetrics::Get();
#endif
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
#if QF_METRICS
    if ((i & 31u) == 0) {
      const uint64_t span_ns = static_cast<uint64_t>((i & 4095u) + 500u);
      if (obs::SampleHit<obs::StageSpanSampling>()) {
        stm.queue_wait_ns.Record(span_ns);
        stm.insert_ns.Record(span_ns);
      }
      obs::TraceRing& tr = obs::TraceRing::Global();
      if (tr.enabled() &&
          obs::SampleHit<obs::StageTraceSampling>()) {
        const uint64_t now = MonotonicNanos();
        tr.Emit(obs::TraceEvent::kBatchProcess, /*tid=*/0, now - span_ns,
                span_ns, /*arg=*/32);
      }
    }
#endif
  }
#if QF_METRICS
  obs::TraceRing::Global().Disable();
#endif
  state.SetItemsProcessed(state.iterations());
  state.counters["qf_metrics"] = QF_METRICS;
}
BENCHMARK(BM_QuantileFilterInsertMetricsGate);

void BM_QuantileFilterQuery(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  DefaultQuantileFilter::Options o;
  o.memory_bytes = 1 << 18;
  DefaultQuantileFilter filter(o, Criteria(30, 0.95, 300));
  for (size_t i = 0; i < kStreamLen; ++i) filter.Insert(w.keys[i], w.values[i]);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.QueryQweight(w.keys[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileFilterQuery);

void BM_NaiveFilterInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  NaiveDualCsketchFilter::Options o;
  o.memory_bytes = 1 << 18;
  NaiveDualCsketchFilter filter(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveFilterInsert);

void BM_SquadInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  Squad::Options o;
  o.memory_bytes = 1 << 18;
  Squad squad(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(squad.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquadInsert);

void BM_SketchPolymerInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  SketchPolymer::Options o;
  o.memory_bytes = 1 << 18;
  SketchPolymer sp(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchPolymerInsert);

void BM_HistSketchInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  HistSketch::Options o;
  HistSketch hs(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hs.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistSketchInsert);

void BM_CountSketchAdd(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  CountSketch<int16_t> sketch(3, 16384, 7);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(w.keys[i], 19);
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchAdd);

void BM_CountSketchEstimate(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  CountSketch<int16_t> sketch(3, 16384, 7);
  for (size_t i = 0; i < kStreamLen; ++i) sketch.Add(w.keys[i], 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(w.keys[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchEstimate);

// Same counter budget as BM_CountSketchAdd/Estimate (3 x 16384 int16 rows
// ~= 96 KiB), but laid out as 64-byte blocks: every op touches one cache
// line instead of d.
void BM_BlockedSketchAdd(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  BlockedCountSketch<int16_t> sketch =
      BlockedCountSketch<int16_t>::FromBytes(3 * 16384 * sizeof(int16_t), 3, 7);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(w.keys[i], 19);
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockedSketchAdd);

void BM_BlockedSketchEstimate(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  BlockedCountSketch<int16_t> sketch =
      BlockedCountSketch<int16_t>::FromBytes(3 * 16384 * sizeof(int16_t), 3, 7);
  for (size_t i = 0; i < kStreamLen; ++i) sketch.Add(w.keys[i], 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(w.keys[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockedSketchEstimate);

// End-to-end vague-path comparison: a filter whose candidate part is kept
// tiny so most inserts fall through to the vague part, run under both
// layouts (arg 0 = classic, 1 = blocked).
void BM_QuantileFilterVagueInsert(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  QuantileFilter<CountSketch<int16_t>>::Options o;
  o.memory_bytes = 1 << 18;
  o.vague_layout =
      state.range(0) ? VagueLayout::kBlocked : VagueLayout::kClassic;
  QuantileFilter<CountSketch<int16_t>> filter(o, Criteria(30, 0.95, 300));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Insert(w.keys[i], w.values[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(VagueLayoutName(o.vague_layout));
}
BENCHMARK(BM_QuantileFilterVagueInsert)->Arg(0)->Arg(1);

// The branch-free sorting-network median that blocked Estimate leans on
// (arg = row count d).
void BM_MedianOfSmall(benchmark::State& state) {
  Rng rng(7);
  constexpr size_t kVals = 1 << 10;
  std::vector<int64_t> vals(kVals);
  for (auto& v : vals) v = static_cast<int64_t>(rng.Next() % 4096) - 2048;
  const int n = static_cast<int>(state.range(0));
  size_t i = 0;
  int64_t scratch[8];
  for (auto _ : state) {
    for (int k = 0; k < n; ++k) scratch[k] = vals[(i + k) & (kVals - 1)];
    benchmark::DoNotOptimize(MedianOfSmall(scratch, n));
    i = (i + n) & (kVals - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MedianOfSmall)->Arg(3)->Arg(4)->Arg(5);

void BM_CountMinAdd(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  CountMinSketch<int16_t> sketch(3, 16384, 7);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(w.keys[i], 1);
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd);

void BM_SpaceSavingAdd(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  SpaceSaving ss(1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss.Add(w.keys[i]));
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

void BM_GkInsert(benchmark::State& state) {
  Rng rng(3);
  GkSummary gk(0.01);
  for (auto _ : state) {
    gk.Insert(rng.NextDouble() * 1000.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GkInsert);

void BM_GkQuery(benchmark::State& state) {
  Rng rng(3);
  GkSummary gk(0.01);
  for (int i = 0; i < 100000; ++i) gk.Insert(rng.NextDouble() * 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gk.Quantile(0.95));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GkQuery);

void BM_KllInsert(benchmark::State& state) {
  Rng rng(4);
  KllSketch kll(200);
  for (auto _ : state) {
    kll.Insert(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KllInsert);

void BM_KllQuery(benchmark::State& state) {
  Rng rng(4);
  KllSketch kll(200);
  for (int i = 0; i < 100000; ++i) kll.Insert(rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kll.Quantile(0.95));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KllQuery);

void BM_TDigestInsert(benchmark::State& state) {
  Rng rng(5);
  TDigest digest(100);
  for (auto _ : state) {
    digest.Insert(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TDigestInsert);

void BM_DdSketchInsert(benchmark::State& state) {
  Rng rng(6);
  DdSketch dd(0.01);
  for (auto _ : state) {
    dd.Insert(1.0 + rng.NextDouble() * 1000.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DdSketchInsert);

void BM_QuantileFilterMerge(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  DefaultQuantileFilter::Options o;
  o.memory_bytes = static_cast<size_t>(state.range(0));
  DefaultQuantileFilter a(o, Criteria(30, 0.95, 300));
  DefaultQuantileFilter b(o, Criteria(30, 0.95, 300));
  for (size_t i = 0; i < kStreamLen; ++i) {
    (i % 2 ? a : b).Insert(w.keys[i], w.values[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MergeFrom(b));
  }
}
BENCHMARK(BM_QuantileFilterMerge)->Arg(1 << 16)->Arg(1 << 20);

void BM_QuantileFilterSerialize(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  DefaultQuantileFilter::Options o;
  o.memory_bytes = 1 << 18;
  DefaultQuantileFilter filter(o, Criteria(30, 0.95, 300));
  for (size_t i = 0; i < kStreamLen; ++i) filter.Insert(w.keys[i], w.values[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.SerializeState());
  }
}
BENCHMARK(BM_QuantileFilterSerialize);

void BM_TowerSketchAdd(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  TowerSketch sketch = TowerSketch::FromBytes(96 * 1024, 3, 7);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(w.keys[i], 19);
    i = (i + 1) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TowerSketchAdd);

}  // namespace
}  // namespace qf

BENCHMARK_MAIN();
