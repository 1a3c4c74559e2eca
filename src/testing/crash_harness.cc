#include "testing/crash_harness.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/exact_detector.h"
#include "common/random.h"
#include "durable/recovery.h"
#include "durable/storage.h"
#include "net/client.h"
#include "net/server.h"
#include "stream/item.h"

namespace qf::testing {

namespace {

using net::QfClient;
using net::QfServer;

// Integral weights (+9 abnormal, -1 normal, report at 50): the filter's
// probabilistic rounding never draws, so the ExactDetector oracle tracks
// Qweights exactly. Keys stay candidate-resident (small universe, ample
// memory), keeping the semantic oracle applicable to every key.
constexpr double kEps = 5.0;
constexpr double kDelta = 0.9;
constexpr double kThreshold = 100.0;
constexpr uint64_t kKeysPerConn = 48;
constexpr double kValues[] = {10.0, 150.0, 600.0};

QfServer::Options ServerOptions(const CrashTrialOptions& options) {
  QfServer::Options so;
  so.port = 0;
  so.num_shards = options.num_shards;
  so.reactors = options.reactors;
  so.filter.memory_bytes = 64 * 1024;
  so.criteria = Criteria(kEps, kDelta, kThreshold);
  so.alert_ring_records = 1u << 16;
  so.durable.fsync = durable::FsyncMode::kGroup;
  // Tiny segments force rotation under even a short load phase, so kills
  // land before, on and after segment boundaries.
  so.durable.segment_bytes = 1024;
  so.durable.checkpoint_interval_items = options.checkpoint_interval_items;
  return so;
}

struct ChildProc {
  pid_t pid = -1;
  uint16_t port = 0;
};

/// Forks a child that serves over `options.dir` and reports its ephemeral
/// port through a pipe. The child never returns: it _exits when the server
/// stops (or dies by signal).
bool SpawnServer(const CrashTrialOptions& options, bool arm_torn,
                 uint64_t torn_after_bytes, ChildProc* out,
                 std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe() failed";
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork() failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    durable::FsStorage storage(options.dir);
    if (!storage.ok()) _exit(10);
    if (arm_torn) storage.ArmTornWrite(torn_after_bytes, 0.5);
    QfServer::Options so = ServerOptions(options);
    so.durable.storage = &storage;
    QfServer server(so);
    if (!server.Start()) _exit(11);
    const uint16_t port = server.port();
    if (write(fds[1], &port, sizeof(port)) != sizeof(port)) _exit(12);
    close(fds[1]);
    server.Wait();
    _exit(0);
  }
  close(fds[1]);
  uint16_t port = 0;
  const ssize_t n = read(fds[0], &port, sizeof(port));
  close(fds[0]);
  if (n != static_cast<ssize_t>(sizeof(port))) {
    int status = 0;
    waitpid(pid, &status, 0);
    std::ostringstream msg;
    msg << "server child failed before reporting its port";
    if (WIFEXITED(status)) msg << " (exit code " << WEXITSTATUS(status) << ")";
    *error = msg.str();
    return false;
  }
  out->pid = pid;
  out->port = port;
  return true;
}

/// mkdir -p: FsStorage creates its own leaf directory, but not parents.
void MakeDirs(const std::string& path) {
  std::string cur;
  for (size_t pos = 0; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      if (!cur.empty()) mkdir(cur.c_str(), 0755);
    }
    if (pos < path.size()) cur.push_back(path[pos]);
  }
}

void ReapBlobs(const std::string& dir) {
  durable::FsStorage storage(dir);
  std::vector<std::string> names;
  if (storage.ok() && storage.List(&names)) {
    for (const std::string& name : names) storage.Remove(name);
  }
  rmdir(dir.c_str());
}

bool SameItem(const Item& a, const Item& b) {
  return a.key == b.key && a.value == b.value;
}

}  // namespace

bool RunCrashTrial(const CrashTrialOptions& options,
                   CrashTrialResult* result) {
  *result = CrashTrialResult{};
  const auto fail = [&](const std::string& why) {
    result->error = why;
    return false;
  };
  if (options.dir.empty()) return fail("options.dir must be set");
  if (options.reactors < 1 || options.num_shards < 1) {
    return fail("reactors and num_shards must be >= 1");
  }
  MakeDirs(options.dir);
  const int conns = options.reactors;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0xC2A5);

  // Deterministic load schedule: every batch targets one connection, whose
  // key range is disjoint from every other's so per-key history is a
  // single-connection (hence known-order) stream.
  struct Batch {
    int conn;
    std::vector<Item> items;
  };
  std::vector<Batch> schedule;
  std::vector<std::vector<Item>> sent(static_cast<size_t>(conns));
  for (size_t b = 0; b < options.batches; ++b) {
    Batch batch;
    batch.conn = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(conns)));
    const size_t count = 1 + static_cast<size_t>(rng.NextBounded(8));
    const uint64_t base =
        1 + static_cast<uint64_t>(batch.conn) * kKeysPerConn;
    for (size_t k = 0; k < count; ++k) {
      const Item item{base + rng.NextBounded(kKeysPerConn),
                      kValues[rng.NextBounded(3)]};
      batch.items.push_back(item);
      sent[static_cast<size_t>(batch.conn)].push_back(item);
    }
    schedule.push_back(std::move(batch));
  }
  const size_t kill_after_sends =
      static_cast<size_t>(rng.NextBounded(options.batches + 1));
  const uint64_t torn_after_bytes = 256 + rng.NextBounded(4096);

  // --- Phase 1: serve, load, kill -------------------------------------
  ChildProc child;
  std::string spawn_error;
  if (!SpawnServer(options, options.arm_torn_write, torn_after_bytes, &child,
                   &spawn_error)) {
    return fail("load phase: " + spawn_error);
  }
  {
    std::vector<std::unique_ptr<QfClient>> clients;
    bool connect_failed = false;
    for (int c = 0; c < conns; ++c) {
      clients.push_back(std::make_unique<QfClient>());
      if (!clients.back()->Connect("127.0.0.1", child.port)) {
        connect_failed = true;
        break;
      }
    }
    if (connect_failed) {
      kill(child.pid, SIGKILL);
      waitpid(child.pid, nullptr, 0);
      return fail("load phase: connect failed");
    }
    std::vector<uint64_t> acked(static_cast<size_t>(conns), 0);
    bool killed = false;
    for (size_t b = 0; b < schedule.size(); ++b) {
      if (!options.arm_torn_write && b == kill_after_sends) {
        kill(child.pid, SIGKILL);
        killed = true;
        break;
      }
      QfClient& cl = *clients[static_cast<size_t>(schedule[b].conn)];
      if (!cl.SendIngest(schedule[b].items)) break;  // server died under us
      // Keep a small in-flight window so acks interleave with sends and
      // the kill can land with work at every pipeline stage.
      while (cl.ingest_in_flight() > 4) {
        net::IngestAck ack;
        if (!cl.AwaitIngestAck(&ack)) break;
        acked[static_cast<size_t>(schedule[b].conn)] += ack.count;
        ++result->acked_batches;
      }
      if (!cl.connected()) break;
    }
    // Collect straggler acks: an ack received after the kill still proves
    // its batch was fsynced (group commit syncs before queueing acks).
    for (int c = 0; c < conns; ++c) {
      while (clients[static_cast<size_t>(c)]->ingest_in_flight() > 0) {
        net::IngestAck ack;
        if (!clients[static_cast<size_t>(c)]->AwaitIngestAck(&ack)) break;
        acked[static_cast<size_t>(c)] += ack.count;
        ++result->acked_batches;
      }
    }
    if (!killed) kill(child.pid, SIGKILL);  // idle kill / torn-shim backstop
    int status = 0;
    waitpid(child.pid, &status, 0);
    result->killed_by_shim =
        options.arm_torn_write && WIFSIGNALED(status) && !killed;

    // --- Phase 2: read-only recovery + oracles ------------------------
    durable::FsStorage ro(options.dir);
    if (!ro.ok()) return fail("read-only storage open failed: " + ro.error());
    const durable::Recovered rec = durable::Recover(ro, {});
    if (!rec.ok) {
      return fail("read-only recovery failed closed: " + rec.error);
    }
    result->logged_items = rec.tail.size();
    result->torn_truncations = rec.torn_truncations;
    if (result->killed_by_shim && rec.torn_truncations != 1) {
      std::ostringstream msg;
      msg << "torn-write shim fired but the scan repaired "
          << rec.torn_truncations << " torn frames (expected exactly 1)";
      return fail(msg.str());
    }

    const QfServer::Options so = ServerOptions(options);
    QfServer::Sharded mirror(so.filter, so.criteria, so.num_shards);
    std::string apply_error;
    if (!durable::ApplyCheckpoint(rec, &mirror, &apply_error)) {
      return fail("mirror checkpoint apply failed: " + apply_error);
    }
    for (const Item& item : rec.tail) mirror.Insert(item.key, item.value);

    ExactDetector exact(so.criteria);
    const bool log_only = !rec.had_checkpoint;
    if (log_only) {
      // Acked-prefix property, per connection: the recovered log's items
      // for connection c must be exactly a prefix of what c sent, at least
      // as long as what c saw acked. (Frames log atomically, so record
      // granularity never splits a batch.)
      std::vector<std::vector<Item>> logged(static_cast<size_t>(conns));
      for (const Item& item : rec.tail) {
        const int c = static_cast<int>((item.key - 1) / kKeysPerConn);
        if (c < 0 || c >= conns) {
          return fail("recovered log contains an item no connection sent");
        }
        logged[static_cast<size_t>(c)].push_back(item);
      }
      for (int c = 0; c < conns; ++c) {
        const auto& lc = logged[static_cast<size_t>(c)];
        const auto& sc = sent[static_cast<size_t>(c)];
        if (lc.size() > sc.size() ||
            !std::equal(lc.begin(), lc.end(), sc.begin(), SameItem)) {
          std::ostringstream msg;
          msg << "connection " << c << ": recovered log is not a prefix of "
              << "the sent stream (" << lc.size() << " logged, " << sc.size()
              << " sent)";
          return fail(msg.str());
        }
        if (lc.size() < acked[static_cast<size_t>(c)]) {
          std::ostringstream msg;
          msg << "connection " << c << ": " << acked[static_cast<size_t>(c)]
              << " items were acked but only " << lc.size()
              << " survived in the log (acked-durability violation)";
          return fail(msg.str());
        }
      }
      for (const Item& item : rec.tail) exact.Insert(item.key, item.value);
    }

    // --- Phase 3: restart, verify, continue ---------------------------
    ChildProc child2;
    if (!SpawnServer(options, /*arm_torn=*/false, 0, &child2, &spawn_error)) {
      return fail("restart phase: " + spawn_error);
    }
    const auto fail_kill = [&](const std::string& why) {
      kill(child2.pid, SIGKILL);
      waitpid(child2.pid, nullptr, 0);
      return fail(why);
    };
    QfClient client;
    if (!client.Connect("127.0.0.1", child2.port)) {
      return fail_kill("restart phase: connect failed: " + client.error());
    }
    if (!client.Drain()) {
      return fail_kill("restart phase: drain failed: " + client.error());
    }
    net::WireStats ws{};
    if (!client.Stats(&ws)) {
      return fail_kill("restart phase: stats failed: " + client.error());
    }
    result->replayed_records = ws.wal_records_replayed;
    if (ws.wal_records_replayed != rec.tail_records) {
      std::ostringstream msg;
      msg << "restarted server replayed " << ws.wal_records_replayed
          << " records; the read-only scan saw " << rec.tail_records;
      return fail_kill(msg.str());
    }
    if (ws.wal_torn_truncations != rec.torn_truncations) {
      std::ostringstream msg;
      msg << "restarted server repaired " << ws.wal_torn_truncations
          << " torn frames; the read-only scan saw " << rec.torn_truncations;
      return fail_kill(msg.str());
    }

    std::vector<uint64_t> keys;
    for (uint64_t k = 1;
         k <= static_cast<uint64_t>(conns) * kKeysPerConn + 8; ++k) {
      keys.push_back(k);  // + 8 never-inserted keys probe the empty answer
    }
    const auto check_queries = [&](const char* when) -> bool {
      std::vector<net::QueryAnswer> answers;
      if (!client.Query(keys, &answers) || answers.size() != keys.size()) {
        result->error = std::string(when) +
                        ": query failed: " + client.error();
        return false;
      }
      for (size_t k = 0; k < keys.size(); ++k) {
        const int64_t want = mirror.QueryQweight(keys[k]);
        const bool want_cand = mirror.IsCandidate(keys[k]);
        if (answers[k].qweight != want ||
            (answers[k].is_candidate != 0) != want_cand) {
          std::ostringstream msg;
          msg << when << ": key " << keys[k] << " answered qweight "
              << answers[k].qweight << " (candidate "
              << static_cast<int>(answers[k].is_candidate)
              << "), mirror has " << want << " (candidate " << want_cand
              << ")";
          result->error = msg.str();
          return false;
        }
        if (log_only && want_cand &&
            std::llround(exact.Qweight(keys[k])) != want) {
          std::ostringstream msg;
          msg << when << ": key " << keys[k]
              << " diverges from the ExactDetector oracle ("
              << std::llround(exact.Qweight(keys[k])) << " vs " << want
              << ")";
          result->error = msg.str();
          return false;
        }
      }
      return true;
    };
    if (!check_queries("post-recovery query")) {
      kill(child2.pid, SIGKILL);
      waitpid(child2.pid, nullptr, 0);
      return false;
    }

    // Alert continuation: the restarted filter must keep reporting exactly
    // where the mirror says the pre-crash state left off. One connection,
    // so the server's per-shard insert order is the send order.
    if (!client.Subscribe(true)) {
      return fail_kill("alert phase: subscribe failed: " + client.error());
    }
    std::vector<std::vector<std::pair<uint64_t, double>>> predicted(
        static_cast<size_t>(options.num_shards));
    std::vector<Item> continuation;
    for (size_t k = 0; k < 192; ++k) {
      // Hammer a few keys with abnormal values so several report cycles
      // complete; a sprinkle of normals exercises the -1 path.
      const Item item{1 + rng.NextBounded(8),
                      (rng.Next() & 7u) == 0 ? 10.0 : 600.0};
      continuation.push_back(item);
      if (mirror.Insert(item.key, item.value)) {
        predicted[static_cast<size_t>(mirror.ShardFor(item.key))]
            .emplace_back(item.key, item.value);
      }
      if (log_only) exact.Insert(item.key, item.value);
    }
    size_t expected_alerts = 0;
    for (const auto& shard : predicted) expected_alerts += shard.size();
    for (size_t pos = 0; pos < continuation.size(); pos += 16) {
      const size_t n = std::min<size_t>(16, continuation.size() - pos);
      if (!client.Ingest(std::span<const Item>(continuation.data() + pos,
                                               n))) {
        return fail_kill("alert phase: ingest failed: " + client.error());
      }
    }
    if (!client.Drain()) {
      return fail_kill("alert phase: drain failed: " + client.error());
    }
    std::vector<std::vector<std::pair<uint64_t, double>>> got(
        static_cast<size_t>(options.num_shards));
    for (size_t a = 0; a < expected_alerts; ++a) {
      net::WireAlert alert{};
      const auto wait = client.NextAlert(&alert, 10'000);
      if (wait != QfClient::AlertWait::kAlert) {
        std::ostringstream msg;
        msg << "alert phase: got " << a << " alerts, expected "
            << expected_alerts << " (wait="
            << (wait == QfClient::AlertWait::kTimeout ? "timeout" : "closed")
            << ")";
        return fail_kill(msg.str());
      }
      // Per-connection seqs start at 0 on a fresh subscription and must be
      // contiguous; a gap would mean the ring dropped (or replay duplicated)
      // an alert record.
      if (alert.seq != static_cast<uint64_t>(a)) {
        return fail_kill("alert phase: per-connection alert seq has a gap");
      }
      if (alert.shard >= static_cast<uint32_t>(options.num_shards)) {
        return fail_kill("alert phase: alert names an impossible shard");
      }
      got[alert.shard].emplace_back(alert.key, alert.value);
    }
    for (int s = 0; s < options.num_shards; ++s) {
      if (got[static_cast<size_t>(s)] != predicted[static_cast<size_t>(s)]) {
        std::ostringstream msg;
        msg << "alert phase: shard " << s << " alert sequence diverges from "
            << "the mirror's predicted report sequence";
        return fail_kill(msg.str());
      }
    }
    if (!check_queries("post-continuation query")) {
      kill(child2.pid, SIGKILL);
      waitpid(child2.pid, nullptr, 0);
      return false;
    }

    if (!client.Shutdown()) {
      return fail_kill("shutdown failed: " + client.error());
    }
    int status2 = 0;
    waitpid(child2.pid, &status2, 0);
    if (!WIFEXITED(status2) || WEXITSTATUS(status2) != 0) {
      return fail("restarted server did not exit cleanly");
    }
  }
  ReapBlobs(options.dir);
  result->ok = true;
  return true;
}

}  // namespace qf::testing
