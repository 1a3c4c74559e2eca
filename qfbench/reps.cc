#include "reps.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "net/client.h"
#include "net/protocol.h"

namespace qfbench {
namespace {

using qf::net::QfClient;

constexpr int kConnectTimeoutMs = 2000;
constexpr double kReadySeconds = 10.0;
constexpr double kAlertWaitSeconds = 10.0;
constexpr size_t kAlertRingRecords = 1u << 16;
constexpr size_t kQueryChunk = 8192;
// Bounds the durable server's WAL: a checkpoint every 1M items lets it
// reap sealed segments, so a long run never holds more than a few
// segments (16 B per item) on disk.
constexpr uint64_t kCheckpointIntervalItems = 1u << 20;

double UsSince(uint64_t t_ns, uint64_t now_ns) {
  return now_ns > t_ns ? static_cast<double>(now_ns - t_ns) / 1e3 : 0.0;
}

void Connect(QfClient& c, uint16_t port, const char* what) {
  if (!c.Connect("127.0.0.1", port)) {
    Fail("connect", std::string(what) + ": " + c.error());
  }
}

std::unique_ptr<QfClient> NewClient() {
  QfClient::Options o;
  o.connect_timeout_ms = kConnectTimeoutMs;
  return std::make_unique<QfClient>(o);
}

qf::net::QfServer::Options ServerOptions(const qf::Criteria& criteria) {
  qf::net::QfServer::Options o;
  o.filter = FilterOptions();
  o.criteria = criteria;
  o.num_shards = kShards;
  o.reactors = 1;
  o.ring_batches = 1024;
  o.alert_ring_records = kAlertRingRecords;
  return o;
}

/// Collects every thread's first error; the rep fails with it after join.
class ErrorSlot {
 public:
  void Set(const std::string& check, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (check_.empty()) {
      check_ = check;
      what_ = what;
    }
  }
  void Raise() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!check_.empty()) Fail(check_, what_);
  }

 private:
  std::mutex mu_;
  std::string check_, what_;
};

/// Stop flag + joined thread, for background helpers.
class Worker {
 public:
  template <typename Fn>
  void Start(Fn&& fn) {
    thread_ = std::thread(std::forward<Fn>(fn));
  }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  void Join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  ~Worker() { Join(); }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Received {
  uint64_t ns;
  uint32_t shard;
  uint64_t key;
};

/// ALERT subscriber on its own connection; records arrival times.
class Subscriber {
 public:
  explicit Subscriber(uint16_t port) : client_(NewClient()) {
    Connect(*client_, port, "subscriber");
    if (!client_->Subscribe(true)) Fail("subscribe", client_->error());
    worker_.Start([this] { Loop(); });
  }
  ~Subscriber() { worker_.Join(); }

  /// Waits until `n` alerts arrived or the deadline passes.
  size_t WaitFor(size_t n, double seconds) {
    const uint64_t deadline =
        MonotonicNanos() + static_cast<uint64_t>(seconds * 1e9);
    std::unique_lock<std::mutex> lock(mu_);
    while (got_.size() < n && MonotonicNanos() < deadline && error_.empty()) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    return got_.size();
  }

  std::vector<Received> Finish() {
    worker_.Join();
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.empty()) Fail("subscriber", error_);
    return std::move(got_);
  }

 private:
  void Loop() {
    while (!worker_.stopping()) {
      qf::net::WireAlert a;
      const auto w = client_->NextAlert(&a, 20);
      if (w == QfClient::AlertWait::kAlert) {
        const uint64_t now = MonotonicNanos();
        std::lock_guard<std::mutex> lock(mu_);
        got_.push_back({now, a.shard, a.key});
        cv_.notify_all();
      } else if (w == QfClient::AlertWait::kClosed) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = client_->error();
        cv_.notify_all();
        return;
      }
    }
  }

  std::unique_ptr<QfClient> client_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Received> got_;
  std::string error_;
  Worker worker_;
};

/// The embedded pipeline's single alert consumer.
class PipelineAlertSink {
 public:
  explicit PipelineAlertSink(Pipeline& p) : p_(p) {
    worker_.Start([this] {
      while (!worker_.stopping()) {
        if (Drain() == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
    });
  }
  ~PipelineAlertSink() { worker_.Join(); }
  /// Stops the consumer thread and drains what is left on this thread.
  std::vector<Received> Finish() {
    worker_.Join();
    Drain();
    return std::move(got_);
  }

 private:
  size_t Drain() {
    const uint64_t now = MonotonicNanos();
    return p_.DrainAlerts([&](int s, const Pipeline::AlertRecord& rec) {
      got_.push_back({now, static_cast<uint32_t>(s), rec.key});
    });
  }
  Pipeline& p_;
  std::vector<Received> got_;
  Worker worker_;
};

/// F1 over the received alerts; for single-connection feeds, also checks
/// that each shard's alert stream is exactly the mirror's and turns every
/// alert into a delay from its tipping item's intended send time.
void FinishAlerts(const Inputs& in, const std::vector<Received>& got,
                  bool exact,
                  const std::function<uint64_t(size_t)>& intended_ns,
                  RepResult* r) {
  std::unordered_set<uint64_t> reported;
  for (const Received& a : got) reported.insert(a.key);
  r->f1 = F1(reported, in.truth);
  if (!exact || r->failed != 0) return;
  std::vector<size_t> next(in.mirror_reports.size(), 0);
  for (const Received& a : got) {
    if (a.shard >= next.size()) {
      Fail("alert stream vs mirror", "alert names shard " +
                                         std::to_string(a.shard));
    }
    const auto& mine = in.mirror_reports[a.shard];
    const size_t j = next[a.shard]++;
    if (j >= mine.size() || mine[j].key != a.key) {
      Fail("alert stream vs mirror",
           "shard " + std::to_string(a.shard) + " alert #" +
               std::to_string(j) + " differs from the mirror's report");
    }
    if (intended_ns) {
      r->alert_us.Add(UsSince(intended_ns(in.FrameOf(mine[j].item)), a.ns));
    }
  }
  for (size_t s = 0; s < next.size(); ++s) {
    if (next[s] != in.mirror_reports[s].size()) {
      Fail("alert stream vs mirror",
           "shard " + std::to_string(s) + " streamed " +
               std::to_string(next[s]) + " alerts, mirror reported " +
               std::to_string(in.mirror_reports[s].size()));
    }
  }
}

/// Drain, then the conservation check and the alert accounting shared by
/// server and cluster reps.
/// `metrics` is connected to one server of the SUT: every in-process
/// server, the coordinator included, records into one process registry,
/// so that server's kMetrics covers them all (a coordinator's merged reply
/// would count the shared registry once per backend).
/// `wait_alerts(n, seconds)` waits for the subscriber to hold n alerts and
/// returns how many it holds.
void DrainAndCheck(const Inputs& in, Sut& sut, QfClient& ctl,
                   QfClient& metrics, uint64_t acked,
                   const std::function<size_t(size_t, double)>& wait_alerts,
                   RepResult* r) {
  qf::net::WireStats st;
  if (!ctl.Drain()) Fail("drain", ctl.error());
  if (!ctl.Stats(&st)) Fail("stats", ctl.error());
  if (!metrics.FetchMetrics(&r->after)) Fail("metrics", metrics.error());
  const uint64_t n = in.trace.size();
  if (acked != n || st.items_ingested != n ||
      st.items_processed != st.items_ingested) {
    Fail("conservation",
         "sent " + std::to_string(n) + ", acked " + std::to_string(acked) +
             ", ingested " + std::to_string(st.items_ingested) +
             ", processed " + std::to_string(st.items_processed));
  }
  const uint64_t expected = st.reports - st.alerts_dropped;
  const size_t got = wait_alerts(expected, kAlertWaitSeconds);
  r->alerts_dropped = st.alerts_dropped;
  r->slow_disconnects = st.slow_disconnects;
  r->failed += st.alerts_dropped + (got < expected ? expected - got : 0);
  r->items = n;
  r->attempted = n;
  if (sut.kind == SutKind::kCluster) {
    double mx = 0, sum = 0;
    for (const auto& s : sut.servers) {
      const double v = static_cast<double>(s->StatsSnapshot().items_ingested);
      mx = std::max(mx, v);
      sum += v;
    }
    r->backend_skew = sum > 0 ? mx * sut.servers.size() / sum : 0.0;
  }
  r->worker_parks =
      CounterValue(r->after, "qf_pipeline_worker_parks_total") -
      CounterValue(r->before, "qf_pipeline_worker_parks_total");
}

/// QUERY every key of the trace's support and compare the checksum with
/// the mirror's (single-connection feeds are bit-identical to it).
template <typename QueryFn>
void CheckSupportChecksum(const Inputs& in, QueryFn&& query) {
  AnswerChecksum sum;
  for (size_t b = 0; b < in.support.size(); b += kQueryChunk) {
    const size_t e = std::min(in.support.size(), b + kQueryChunk);
    query(std::span<const uint64_t>(in.support.data() + b, e - b), &sum);
  }
  if (sum.value() != in.mirror_checksum) {
    Fail("query checksum vs mirror",
         "QUERY answers over " + std::to_string(in.support.size()) +
             " keys differ from the single-process mirror");
  }
}

void NetQueryChecksum(const Inputs& in, QfClient& ctl) {
  std::vector<qf::net::QueryAnswer> ans;
  CheckSupportChecksum(in, [&](std::span<const uint64_t> keys,
                               AnswerChecksum* sum) {
    if (!ctl.Query(keys, &ans)) Fail("query", ctl.error());
    for (const auto& a : ans) sum->Add(a.qweight, a.is_candidate != 0);
  });
}

void PipelineQueryChecksum(const Inputs& in, Pipeline& p) {
  std::vector<Pipeline::QueryAnswer> ans;
  CheckSupportChecksum(in, [&](std::span<const uint64_t> keys,
                               AnswerChecksum* sum) {
    ans.resize(keys.size());
    p.QueryBatch(keys, ans.data());
    for (const auto& a : ans) sum->Add(a.qweight, a.is_candidate);
  });
}

void CheckPipelineConservation(Pipeline& p, uint64_t n) {
  const Pipeline::Totals t = p.totals();
  if (t.items_dispatched != n || t.items_processed != n) {
    Fail("conservation",
         "pushed " + std::to_string(n) + ", dispatched " +
             std::to_string(t.items_dispatched) + ", processed " +
             std::to_string(t.items_processed));
  }
}

void CheckReportedKeySet(const Inputs& in, const std::vector<Received>& got) {
  std::unordered_set<uint64_t> mine, mirror;
  for (const Received& a : got) mine.insert(a.key);
  for (const auto& shard : in.mirror_reports) {
    for (const MirrorReport& m : shard) mirror.insert(m.key);
  }
  if (mine != mirror) {
    Fail("reported keys vs mirror",
         std::to_string(mine.size()) + " reported keys, mirror has " +
             std::to_string(mirror.size()));
  }
}

void Teardown(std::unique_ptr<Sut>* sut) {
  sut->reset();
  malloc_trim(0);  // so the next rep's RSS growth starts from a clean heap
}

/// Polls the coordinator's ledger-depth gauge from the process registry.
class LedgerSampler {
 public:
  explicit LedgerSampler(bool on) {
    if (!on) return;
    worker_.Start([this] {
      while (!worker_.stopping()) {
        const auto snap = qf::obs::MetricsRegistry::Global().Snapshot();
        const int64_t d = GaugeValue(snap, "qf_cluster_credit_ledger_depth");
        max_.store(std::max<int64_t>(max_.load(), d));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  double Finish() {
    worker_.Join();
    return static_cast<double>(max_.load());
  }

 private:
  std::atomic<int64_t> max_{0};
  Worker worker_;
};

// --------------------------------------------------------- closed loop

RepResult ClosedEmbedded(const Inputs& in) {
  RepResult r;
  const double rss0 = RssMb();
  auto sut = BootSut(SutKind::kEmbedded, false, in.criteria);
  r.setup_s = sut->setup_s;
  Pipeline& p = *sut->pipeline;
  const auto parks0 = p.totals().worker_parks;
  PipelineAlertSink sink(p);
  const uint64_t t0 = MonotonicNanos();
  for (size_t f = 0; f < in.frames(); ++f) {
    SpanScope root("loadgen.frame", nullptr, f);
    SpanScope push("parallel.push_batch", "loadgen.frame", f);
    p.PushBatch(in.Frame(f));
  }
  {
    SpanScope fence("parallel.fence", nullptr, in.frames());
    p.Fence();
  }
  const uint64_t t1 = MonotonicNanos();
  r.items_per_s = static_cast<double>(in.trace.size()) * 1e9 / (t1 - t0);
  CheckPipelineConservation(p, in.trace.size());
  const std::vector<Received> got = sink.Finish();
  r.failed = p.totals().alerts_dropped;
  r.worker_parks = p.totals().worker_parks - parks0;
  r.items = r.attempted = in.trace.size();
  if (r.failed == 0) CheckReportedKeySet(in, got);
  FinishAlerts(in, got, true, nullptr, &r);
  r.rss_mb = RssMb() - rss0;
  Teardown(&sut);
  return r;
}

RepResult ClosedNet(const Inputs& in, const RepConfig& cfg) {
  RepResult r;
  const double rss0 = RssMb();
  auto sut = BootSut(cfg.kind, cfg.durable, in.criteria);
  r.setup_s = sut->setup_s;
  r.ready_s = sut->ready_s;
  auto ctl = NewClient();
  Connect(*ctl, sut->port, "control");
  auto metrics = NewClient();
  Connect(*metrics, sut->metrics_port, "metrics");
  if (!metrics->FetchMetrics(&r.before)) Fail("metrics", metrics->error());
  Subscriber sub(sut->port);
  std::vector<std::unique_ptr<QfClient>> conns;
  for (int c = 0; c < cfg.conns; ++c) {
    conns.push_back(NewClient());
    Connect(*conns.back(), sut->port, "ingest");
  }
  ErrorSlot errors;
  Worker queries;
  if (cfg.closed_loop_queries) {
    auto q = NewClient();
    Connect(*q, sut->port, "query");
    // Paced, not back to back: a fixed read load competes with the
    // inserts, so the closed-loop rate does not depend on how the
    // scheduler splits cores between the two connections.
    queries.Start([&, q = std::move(q)] {
      UseFineTimerSlack();
      std::vector<qf::net::QueryAnswer> ans;
      const double period = 1e9 / in.spec->query_rate;
      const uint64_t t0 = MonotonicNanos();
      for (uint64_t i = 1; !queries.stopping(); ++i) {
        SleepUntil(t0 + static_cast<uint64_t>(static_cast<double>(i) * period));
        const uint64_t t = MonotonicNanos();
        if (!q->Query(in.hot_keys, &ans)) {
          errors.Set("query", q->error());
          return;
        }
        r.query_rtt_us.Add(UsSince(t, MonotonicNanos()));
      }
    });
  }
  LedgerSampler ledger(cfg.sample_ledger);

  std::atomic<uint64_t> acked{0};
  std::vector<Samples> send_us(cfg.conns), rtt_us(cfg.conns);
  std::vector<std::thread> threads;
  const uint64_t t0 = MonotonicNanos();
  for (int c = 0; c < cfg.conns; ++c) {
    threads.emplace_back([&, c] {
      QfClient& cl = *conns[c];
      std::deque<std::pair<size_t, uint64_t>> inflight;  // frame, send ns
      const auto await_one = [&] {
        const auto [f, sent] = inflight.front();
        inflight.pop_front();
        qf::net::IngestAck ack;
        bool ok;
        {
          SpanScope wait("net.client.await_ack", "loadgen.frame", f);
          ok = cl.AwaitIngestAck(&ack);
        }
        const uint64_t now = MonotonicNanos();
        if (!ok || ack.count != in.Frame(f).size()) {
          errors.Set("ingest ack", ok ? "ack count mismatch" : cl.error());
          return false;
        }
        if (Tracer::Get().enabled()) {
          Tracer::Get().Record("loadgen.frame", nullptr, f, sent, now);
        }
        rtt_us[c].Add(UsSince(sent, now));
        acked.fetch_add(ack.count, std::memory_order_relaxed);
        return true;
      };
      for (size_t f = c; f < in.frames(); f += cfg.conns) {
        if (inflight.size() == cfg.window && !await_one()) return;
        const uint64_t sent = MonotonicNanos();
        bool ok;
        {
          SpanScope send("net.client.send", "loadgen.frame", f);
          ok = cl.SendIngest(in.Frame(f));
        }
        send_us[c].Add(UsSince(sent, MonotonicNanos()));
        if (!ok) {
          errors.Set("ingest send", cl.error());
          return;
        }
        inflight.push_back({f, sent});
      }
      while (!inflight.empty()) {
        if (!await_one()) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t t1 = MonotonicNanos();
  queries.Join();
  r.ledger_depth_max = ledger.Finish();
  errors.Raise();
  r.items_per_s = static_cast<double>(in.trace.size()) * 1e9 / (t1 - t0);
  for (int c = 0; c < cfg.conns; ++c) {
    r.send_us.Append(send_us[c]);
    r.rtt_us.Append(rtt_us[c]);
  }
  DrainAndCheck(in, *sut, *ctl, *metrics, acked.load(),
                [&](size_t n, double s) { return sub.WaitFor(n, s); }, &r);
  // One connection means the server saw the trace in order.
  FinishAlerts(in, sub.Finish(), cfg.conns == 1, nullptr, &r);
  r.rss_mb = RssMb() - rss0;
  ctl.reset();
  metrics.reset();
  Teardown(&sut);
  return r;
}

// ------------------------------------------------------------ open loop
//
// One generator thread drives every open-loop connection, as wrk2 does:
// it sends each INGEST and QUERY frame when due, and between due times it
// sleeps in ppoll on all sockets, so acks, results and alerts are
// timestamped the moment they arrive without a reader thread per socket.
// Fewer generator threads leave the cores to the system under test.

/// A raw client socket: the generator writes pre-encoded frames itself,
/// because QfClient's blocking calls cannot keep a schedule, and reads
/// replies with net/protocol's FrameDecoder.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &a.sin_addr);
    if (fd_ < 0 ||
        connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
      if (fd_ >= 0) close(fd_);
      Fail("connect", "open-loop socket");
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{10, 0};  // a send blocked this long means a wedged server
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  int fd() const { return fd_; }

  bool SendAll(const uint8_t* p, size_t n) {
    while (n > 0) {
      const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

  /// Reads what is buffered without blocking and hands each complete
  /// frame to `fn(view)`. Returns false on close or a poisoned stream.
  template <typename Fn>
  bool Pump(Fn&& fn) {
    for (;;) {
      const ssize_t n = recv(fd_, buf_.data(), buf_.size(), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      if (!dec_.Append(buf_.data(), static_cast<size_t>(n))) return false;
      qf::net::FrameView fv;
      while (dec_.NextView(&fv) == qf::net::FrameDecoder::Result::kFrame) {
        if (!fn(fv)) return false;
      }
    }
  }

 private:
  int fd_ = -1;
  qf::net::FrameDecoder dec_;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(1 << 16);
};

struct Schedule {
  uint64_t t0 = 0;
  double frame_ns = 0.0;
  double query_ns = 0.0;
  uint64_t At(size_t f) const {
    return t0 + static_cast<uint64_t>(static_cast<double>(f) * frame_ns);
  }
  uint64_t QueryAt(size_t q) const {
    return t0 + static_cast<uint64_t>(static_cast<double>(q) * query_ns);
  }
};

Schedule MakeSchedule(const Inputs& in) {
  Schedule s;
  s.frame_ns = static_cast<double>(in.spec->frame_items) * 1e9 /
               in.spec->open_rate;
  s.query_ns = 1e9 / in.spec->query_rate;
  s.t0 = MonotonicNanos() + 5'000'000;
  return s;
}

void PhaseForOpenLoop(const Inputs& in) {
  const double planned =
      static_cast<double>(in.trace.size()) / in.spec->open_rate;
  Watchdog::Get().Phase("open-loop ingest", planned + 30.0);
}

/// Backlog (sent minus acked items) sampled at 10% of the schedule and at
/// its last frame; their difference must stay near zero at a sustainable
/// offered rate.
struct Backlog {
  int64_t early = 0, late = 0;
  void Sample(size_t f, size_t frames, uint64_t sent, uint64_t acked) {
    if (f == frames / 10) early = static_cast<int64_t>(sent - acked);
    if (f + 1 == frames) late = static_cast<int64_t>(sent - acked);
  }
  double growth() const { return static_cast<double>(late - early); }
};

RepResult OpenEmbedded(const Inputs& in) {
  RepResult r;
  const double rss0 = RssMb();
  auto sut = BootSut(SutKind::kEmbedded, false, in.criteria);
  r.setup_s = sut->setup_s;
  Pipeline& p = *sut->pipeline;
  const auto parks0 = p.totals().worker_parks;
  PhaseForOpenLoop(in);
  const Schedule sched = MakeSchedule(in);
  const size_t frames = in.frames();
  const uint64_t t_last = sched.At(frames - 1);
  std::vector<Received> got;
  Backlog backlog;
  // One thread is the producer, the QUERY caller and the alert consumer,
  // polling the alert rings between due times.
  std::thread generator([&] {
    UseFineTimerSlack();
    std::vector<Pipeline::QueryAnswer> ans(in.hot_keys.size());
    uint64_t sent = 0;
    size_t f = 0, q = 0;
    while (f < frames) {
      uint64_t now = MonotonicNanos();
      while (f < frames && sched.At(f) <= now) {
        const uint64_t due = sched.At(f);
        r.late_us.Add(UsSince(due, now));
        {
          SpanScope root("loadgen.frame", nullptr, f);
          SpanScope push("parallel.push_batch", "loadgen.frame", f);
          p.PushBatch(in.Frame(f));
          p.Flush();
        }
        now = MonotonicNanos();
        r.ack_us.Add(UsSince(due, now));
        sent += in.Frame(f).size();
        backlog.Sample(f, frames, sent, p.totals().items_processed);
        ++f;
      }
      if (sched.QueryAt(q) <= now && sched.QueryAt(q) <= t_last) {
        const uint64_t due = sched.QueryAt(q++);
        const uint64_t t = MonotonicNanos();
        p.QueryBatch(in.hot_keys, ans.data());
        now = MonotonicNanos();
        r.query_us.Add(UsSince(due, now));
        r.query_rtt_us.Add(UsSince(t, now));
      }
      p.DrainAlerts([&](int s, const Pipeline::AlertRecord& rec) {
        got.push_back({now, static_cast<uint32_t>(s), rec.key});
      });
      if (f < frames) {
        const uint64_t next = std::min(sched.At(f), sched.QueryAt(q));
        const uint64_t sleep_ns = SleepBudgetNs(next);
        if (sleep_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
        } else {
          sched_yield();
        }
      }
    }
  });
  generator.join();
  p.Fence();
  const uint64_t now = MonotonicNanos();
  p.DrainAlerts([&](int s, const Pipeline::AlertRecord& rec) {
    got.push_back({now, static_cast<uint32_t>(s), rec.key});
  });
  r.backlog_growth = backlog.growth();
  CheckPipelineConservation(p, in.trace.size());
  PipelineQueryChecksum(in, p);
  r.failed = p.totals().alerts_dropped;
  r.worker_parks = p.totals().worker_parks - parks0;
  r.items = r.attempted = in.trace.size();
  if (r.failed == 0) CheckReportedKeySet(in, got);
  FinishAlerts(in, got, true, [&](size_t f) { return sched.At(f); }, &r);
  r.rss_mb = RssMb() - rss0;
  Teardown(&sut);
  return r;
}

RepResult OpenNet(const Inputs& in, const RepConfig& cfg) {
  RepResult r;
  // Pre-encoded frames are part of the generator, not the system under
  // test: built before the RSS baseline. Reserved up front, because
  // EncodeIngestTo reserves exactly what it appends, which would make
  // growing one buffer frame by frame quadratic.
  std::vector<uint8_t> wire;
  wire.reserve(in.trace.size() * sizeof(qf::Item) + in.frames() * 32);
  std::vector<size_t> offset{0};
  for (size_t f = 0; f < in.frames(); ++f) {
    qf::net::EncodeIngestTo(f + 1, in.Frame(f), &wire);
    offset.push_back(wire.size());
  }
  std::vector<uint8_t> query_frame, subscribe_frame;
  qf::net::EncodeQueryTo(1, in.hot_keys, &query_frame);
  qf::net::EncodeSubscribeTo(1, true, &subscribe_frame);

  const double rss0 = RssMb();
  auto sut = BootSut(cfg.kind, cfg.durable, in.criteria);
  r.setup_s = sut->setup_s;
  r.ready_s = sut->ready_s;
  auto ctl = NewClient();
  Connect(*ctl, sut->port, "control");
  auto metrics = NewClient();
  Connect(*metrics, sut->metrics_port, "metrics");
  if (!metrics->FetchMetrics(&r.before)) Fail("metrics", metrics->error());
  RawConn ingest(sut->port), query(sut->port), sub(sut->port);

  std::vector<Received> alerts;
  std::string error;
  bool subscribed = false;
  const auto on_alert = [&](const qf::net::FrameView& fv) {
    const uint64_t now = MonotonicNanos();
    qf::net::WireAlert a;
    if (fv.type == qf::net::FrameType::kSubscribe) {
      subscribed = true;
      return true;
    }
    if (fv.type != qf::net::FrameType::kAlert ||
        !qf::net::ParseAlert(fv.payload, &a)) {
      error = "subscriber: unexpected frame";
      return false;
    }
    alerts.push_back({now, a.shard, a.key});
    return true;
  };
  // Subscribe before the first item, so no alert of this rep is missed.
  if (!sub.SendAll(subscribe_frame.data(), subscribe_frame.size())) {
    Fail("subscribe", "send failed");
  }
  const uint64_t sub_deadline = MonotonicNanos() + 5'000'000'000ULL;
  while (!subscribed) {
    if (!sub.Pump(on_alert)) Fail("subscribe", error);
    if (MonotonicNanos() > sub_deadline) Fail("subscribe", "no echo");
    if (!subscribed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  PhaseForOpenLoop(in);
  const Schedule sched = MakeSchedule(in);
  const size_t frames = in.frames();
  const uint64_t t_last = sched.At(frames - 1);
  const uint64_t deadline = t_last + 20'000'000'000ULL;
  std::vector<uint64_t> ack_ns(frames, 0);
  std::deque<uint64_t> query_due;  // due times of QUERYs awaiting results
  uint64_t acked = 0;
  Backlog backlog;
  std::thread generator([&] {
    UseFineTimerSlack();
    uint64_t sent = 0;
    size_t f = 0, next_ack = 0, q = 0;
    std::deque<uint64_t> query_sent;
    const auto on_ack = [&](const qf::net::FrameView& fv) {
      const uint64_t now = MonotonicNanos();
      qf::net::IngestAck ack;
      if (fv.type != qf::net::FrameType::kIngestAck ||
          !qf::net::ParseIngestAck(fv.payload, &ack) ||
          ack.token != next_ack + 1 || next_ack >= f ||
          ack.count != in.Frame(next_ack).size()) {
        error = "ingest: unexpected frame or ack out of order";
        return false;
      }
      if (Tracer::Get().enabled()) {
        Tracer::Get().Record("loadgen.frame", nullptr, next_ack,
                             sched.At(next_ack), now);
      }
      ack_ns[next_ack++] = now;
      acked += ack.count;
      return true;
    };
    const auto on_result = [&](const qf::net::FrameView& fv) {
      const uint64_t now = MonotonicNanos();
      if (fv.type != qf::net::FrameType::kQueryResult || query_due.empty()) {
        error = "query: unexpected frame";
        return false;
      }
      r.query_us.Add(UsSince(query_due.front(), now));
      r.query_rtt_us.Add(UsSince(query_sent.front(), now));
      query_due.pop_front();
      query_sent.pop_front();
      return true;
    };
    pollfd fds[3] = {{ingest.fd(), POLLIN, 0}, {query.fd(), POLLIN, 0},
                     {sub.fd(), POLLIN, 0}};
    while (next_ack < frames || !query_due.empty()) {
      uint64_t now = MonotonicNanos();
      if (now > deadline) {
        error = "acks stopped arriving";
        return;
      }
      while (f < frames && sched.At(f) <= now) {
        r.late_us.Add(UsSince(sched.At(f), now));
        bool ok;
        {
          SpanScope send("net.raw.send", "loadgen.frame", f);
          ok = ingest.SendAll(wire.data() + offset[f],
                              offset[f + 1] - offset[f]);
        }
        if (!ok) {
          error = "ingest: send failed or timed out";
          return;
        }
        sent += in.Frame(f).size();
        backlog.Sample(f, frames, sent, acked);
        ++f;
        now = MonotonicNanos();
      }
      while (sched.QueryAt(q) <= now && sched.QueryAt(q) <= t_last) {
        query_due.push_back(sched.QueryAt(q++));
        query_sent.push_back(now);
        if (!query.SendAll(query_frame.data(), query_frame.size())) {
          error = "query: send failed or timed out";
          return;
        }
      }
      if (!ingest.Pump(on_ack) || !query.Pump(on_result) ||
          !sub.Pump(on_alert)) {
        if (error.empty()) error = "connection closed by the server";
        return;
      }
      // Sleep in ppoll until the next due send or the next reply.
      uint64_t next = UINT64_MAX;
      if (f < frames) next = sched.At(f);
      if (sched.QueryAt(q) <= t_last) next = std::min(next, sched.QueryAt(q));
      const uint64_t sleep_ns =
          next == UINT64_MAX ? 100'000'000 : SleepBudgetNs(next);
      if (sleep_ns > 0) {
        const timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                          static_cast<long>(sleep_ns % 1'000'000'000)};
        ppoll(fds, 3, &ts, nullptr);
      } else {
        sched_yield();
      }
    }
  });
  generator.join();
  if (!error.empty()) Fail("open-loop ingest", error);
  for (size_t f = 0; f < frames; ++f) {
    r.ack_us.Add(UsSince(sched.At(f), ack_ns[f]));
  }
  r.backlog_growth = backlog.growth();
  PhaseScope phase("open-loop checks", 60.0);
  DrainAndCheck(in, *sut, *ctl, *metrics, acked,
                [&](size_t n, double seconds) {
                  const uint64_t until =
                      MonotonicNanos() + static_cast<uint64_t>(seconds * 1e9);
                  while (alerts.size() < n && MonotonicNanos() < until) {
                    if (!sub.Pump(on_alert)) Fail("subscriber", error);
                    pollfd pfd{sub.fd(), POLLIN, 0};
                    poll(&pfd, 1, 5);
                  }
                  return alerts.size();
                },
                &r);
  NetQueryChecksum(in, *ctl);
  FinishAlerts(in, alerts, true, [&](size_t f) { return sched.At(f); }, &r);
  r.rss_mb = RssMb() - rss0;
  ctl.reset();
  metrics.reset();
  Teardown(&sut);
  return r;
}

}  // namespace

Sut::~Sut() {
  if (coordinator) coordinator->Stop();
  for (auto& s : servers) s->Stop();
  if (pipeline) pipeline->Stop();
}

std::unique_ptr<Sut> BootSut(SutKind kind, bool durable,
                             const qf::Criteria& criteria) {
  PhaseScope phase("setup", kReadySeconds + 5.0);
  auto sut = std::make_unique<Sut>();
  sut->kind = kind;
  if (durable) sut->wal_dir = std::make_unique<ScratchDir>("wal");
  const uint64_t t0 = MonotonicNanos();
  if (kind == SutKind::kEmbedded) {
    sut->filter = std::make_unique<Sharded>(FilterOptions(), criteria, kShards);
    Pipeline::Options po;
    po.ring_batches = 1024;
    po.alert_ring_records = kAlertRingRecords;
    sut->pipeline = std::make_unique<Pipeline>(*sut->filter, po);
    sut->pipeline->Start();
    sut->setup_s = (MonotonicNanos() - t0) / 1e9;
    return sut;
  }
  const int backends = kind == SutKind::kCluster ? 2 : 1;
  for (int b = 0; b < backends; ++b) {
    auto opts = ServerOptions(criteria);
    if (durable) {
      opts.durable.wal_dir = sut->wal_dir->path();
      opts.durable.fsync = qf::durable::FsyncMode::kGroup;
      opts.durable.checkpoint_interval_items = kCheckpointIntervalItems;
    }
    sut->servers.push_back(std::make_unique<qf::net::QfServer>(opts));
    if (!sut->servers.back()->Start()) {
      Fail("server start", sut->servers.back()->error());
    }
  }
  sut->port = sut->metrics_port = sut->servers[0]->port();
  if (kind == SutKind::kCluster) {
    qf::cluster::CoordinatorOptions co;
    for (const auto& s : sut->servers) {
      co.backends.push_back("127.0.0.1:" + std::to_string(s->port()));
    }
    co.num_slots = kShards;
    co.reactors = 1;
    const uint64_t tc = MonotonicNanos();
    sut->coordinator = std::make_unique<qf::cluster::Coordinator>(co);
    if (!sut->coordinator->Start()) {
      Fail("coordinator start", sut->coordinator->error());
    }
    sut->port = sut->coordinator->port();
    auto probe = NewClient();
    Connect(*probe, sut->port, "ready probe");
    const uint64_t deadline =
        MonotonicNanos() + static_cast<uint64_t>(kReadySeconds * 1e9);
    for (;;) {
      qf::net::WireTopology topo;
      if (!probe->FetchTopology(&topo)) Fail("ready probe", probe->error());
      bool ready = !topo.backends.empty();
      for (const auto& wb : topo.backends) {
        ready = ready && wb.state == qf::net::BackendState::kReady;
      }
      if (ready) break;
      if (MonotonicNanos() > deadline) {
        Fail("cluster ready", "backends never all reached kReady");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    sut->ready_s = (MonotonicNanos() - tc) / 1e9;
  } else {
    // Accepting ingest: a client connection completes.
    auto probe = NewClient();
    Connect(*probe, sut->port, "ready probe");
  }
  sut->setup_s = (MonotonicNanos() - t0) / 1e9;
  return sut;
}

RepConfig ConfigFor(const WorkloadSpec& spec) {
  RepConfig c;
  c.kind = spec.kind;
  c.durable = spec.durable;
  c.conns = spec.ingest_conns;
  c.window = spec.window_frames;
  c.closed_loop_queries = spec.closed_loop_queries;
  c.sample_ledger = spec.kind == SutKind::kCluster;
  return c;
}

RepResult RunClosedRep(const Inputs& in, const RepConfig& cfg) {
  PhaseScope phase("closed-loop rep", 60.0);
  return cfg.kind == SutKind::kEmbedded ? ClosedEmbedded(in)
                                        : ClosedNet(in, cfg);
}

RepResult RunOpenRep(const Inputs& in, const RepConfig& cfg) {
  PhaseScope phase("open-loop rep", 60.0);
  return cfg.kind == SutKind::kEmbedded ? OpenEmbedded(in) : OpenNet(in, cfg);
}

Samples WindowOneRtts(const Inputs& in, SutKind kind, size_t frames) {
  PhaseScope phase("window-1 rtt", 60.0);
  auto sut = BootSut(kind, false, in.criteria);
  auto cl = NewClient();
  Connect(*cl, sut->port, "ingest");
  Samples rtt;
  frames = std::min(frames, in.frames());
  for (size_t f = 0; f < frames; ++f) {
    const uint64_t t = MonotonicNanos();
    qf::net::IngestAck ack;
    if (!cl->Ingest(in.Frame(f), &ack)) Fail("ingest", cl->error());
    rtt.Add(UsSince(t, MonotonicNanos()));
  }
  cl.reset();
  Teardown(&sut);
  return rtt;
}

}  // namespace qfbench
