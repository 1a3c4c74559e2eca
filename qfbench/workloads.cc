#include "workloads.h"

#include <algorithm>
#include <unordered_map>

#include "baseline/exact_detector.h"
#include "core/sharded_filter.h"
#include "stream/generators.h"

namespace qfbench {

const std::vector<WorkloadSpec>& Workloads() {
  // Open-loop rates are fixed absolute values, a quarter to a third of the
  // median closed-loop peak measured for each workload (README.md records
  // the calibration). They must not follow the machine: a later change is
  // judged at the same offered load as its parent.
  static const std::vector<WorkloadSpec> kWorkloads = {
      // name, kind, cloud, items, frame, conns, window, durable,
      // open_rate, query_rate, closed_loop_queries
      {"embedded", SutKind::kEmbedded, true, 3'000'000, 256, 1, 0, false,
       6.5e6, 5000, false},
      {"serve-bulk", SutKind::kServer, false, 4'000'000, 1024, 2, 64, true,
       2.75e6, 2000, false},
      {"serve-mixed", SutKind::kServer, false, 1'500'000, 32, 1, 1024, false,
       0.6e6, 2000, true},
      {"cluster", SutKind::kCluster, false, 4'000'000, 1024, 1, 64, false,
       4.5e6, 3000, false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

qf::QuantileFilter<>::Options FilterOptions() {
  qf::QuantileFilter<>::Options o;
  o.memory_bytes = kMemoryBytes;
  o.vague_layout = qf::VagueLayout::kBlocked;  // qf_server's default
  return o;
}

size_t Inputs::mirror_report_count() const {
  size_t n = 0;
  for (const auto& r : mirror_reports) n += r.size();
  return n;
}

Inputs BuildInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  // Paper criteria (Sec V-A): eps=30, delta=0.95; T=20000 on the Cloud
  // trace, T=300 on the Internet trace.
  in.criteria = qf::Criteria(30.0, 0.95, spec.cloud_trace ? 20000.0 : 300.0);
  if (spec.cloud_trace) {
    qf::CloudTraceOptions o;
    o.num_items = spec.items;
    o.seed = seed;
    in.trace = qf::GenerateCloudTrace(o);
  } else {
    qf::InternetTraceOptions o;
    o.num_items = spec.items;
    o.num_keys = spec.items / 40;  // the paper's key:item ratio
    o.seed = seed;
    in.trace = qf::GenerateInternetTrace(o);
  }

  qf::ShardedQuantileFilter<> mirror(FilterOptions(), in.criteria, kShards);
  in.mirror_reports.resize(kShards);
  std::unordered_map<uint64_t, uint32_t> freq;
  freq.reserve(in.trace.size());
  for (size_t i = 0; i < in.trace.size(); ++i) {
    const qf::Item& it = in.trace[i];
    const int s = mirror.ShardFor(it.key);
    if (mirror.shard(s).Insert(it.key, it.value)) {
      in.mirror_reports[s].push_back({static_cast<uint32_t>(i), it.key});
    }
    if (freq[it.key]++ == 0) in.support.push_back(it.key);
  }
  AnswerChecksum sum;
  for (uint64_t k : in.support) {
    sum.Add(mirror.QueryQweight(k), mirror.IsCandidate(k));
  }
  in.mirror_checksum = sum.value();

  std::vector<std::pair<uint32_t, uint64_t>> by_freq;
  by_freq.reserve(freq.size());
  for (const auto& [k, n] : freq) by_freq.push_back({n, k});
  const size_t hot = std::min(kHotKeys, by_freq.size());
  std::partial_sort(by_freq.begin(), by_freq.begin() + static_cast<long>(hot),
                    by_freq.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  for (size_t i = 0; i < hot; ++i) in.hot_keys.push_back(by_freq[i].second);

  in.truth = qf::TrueOutstandingKeys(in.trace, in.criteria);
  return in;
}

void AnswerChecksum::Add(int64_t qweight, bool is_candidate) {
  const uint64_t words[2] = {static_cast<uint64_t>(qweight),
                             is_candidate ? 1ULL : 0ULL};
  for (uint64_t v : words) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
}

double F1(const std::unordered_set<uint64_t>& reported,
          const std::unordered_set<uint64_t>& truth) {
  size_t tp = 0;
  for (uint64_t k : reported) tp += truth.count(k);
  if (tp == 0) return 0.0;
  const double p = static_cast<double>(tp) / static_cast<double>(reported.size());
  const double r = static_cast<double>(tp) / static_cast<double>(truth.size());
  return 2.0 * p * r / (p + r);
}

}  // namespace qfbench
