// Standalone per-layer probes for the traced run. Each feeds the
// workload's own trace, at its frame size, into one layer's public API with
// nothing above it, so the layer's cost is read without the layers it
// normally sits under.

#ifndef QFBENCH_PROBES_H_
#define QFBENCH_PROBES_H_

#include <map>
#include <string>

#include "workloads.h"

namespace qfbench {

using LayerMetrics = std::map<std::string, double>;

/// core.*: one QuantileFilter at one shard's budget, InsertBatch per frame.
void CoreProbe(const Inputs& in, LayerMetrics* m);
/// parallel.* except worker parks: a 2-shard IngestPipeline, PushBatch per
/// frame from one producer while another thread runs QueryBatch.
void ParallelProbe(const Inputs& in, LayerMetrics* m);
/// durable.*: WalWriter on FsStorage in a scratch directory, one record
/// per frame, group Sync every ~8K items.
void DurableProbe(const Inputs& in, LayerMetrics* m);
/// net.encode / net.decode: INGEST encode, then FrameDecoder + ParseIngest.
void CodecProbe(const Inputs& in, LayerMetrics* m);

}  // namespace qfbench

#endif  // QFBENCH_PROBES_H_
