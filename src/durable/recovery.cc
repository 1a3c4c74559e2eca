#include "durable/recovery.h"

#include <utility>

namespace qf::durable {

Recovered Recover(Storage& storage, const RecoverOptions& options) {
  Recovered out;

  CheckpointStore checkpoints(&storage);
  LoadedCheckpoint loaded = checkpoints.LoadNewest();
  if (!loaded.ok) {
    out.error = "checkpoint resolution failed: " + loaded.error;
    return out;
  }
  out.warning = loaded.warning;
  uint64_t expected_gen = 0;
  uint64_t applied_seq = 0;
  if (loaded.found) {
    out.had_checkpoint = true;
    out.checkpoint_id = loaded.id;
    out.covered_seq = loaded.covered_seq;
    out.state = std::move(loaded.state);
    out.rng = std::move(loaded.rng);
    expected_gen = loaded.wal_gen;
    applied_seq = loaded.covered_seq;
  }

  LogScan scan =
      ScanWal(storage, expected_gen, applied_seq, options.repair_torn_tail);
  if (!scan.ok) {
    out.error = "wal scan failed: " + scan.error;
    return out;
  }

  out.ok = true;
  // A fresh directory has gen 0 from both sources; the writer starts gen 1.
  out.wal_gen = scan.wal_gen == 0 ? 1 : scan.wal_gen;
  out.next_seq = scan.next_seq;
  out.tail = std::move(scan.tail);
  out.tail_records = scan.tail_records;
  out.segments_scanned = scan.segments_scanned;
  out.torn_truncations = scan.torn_truncations;
  return out;
}

}  // namespace qf::durable
