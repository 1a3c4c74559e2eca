// MetricsSink: single-shot and periodic export of JSONL + Prometheus files,
// with the Prometheus file rewritten atomically (never torn).

#include "obs/sink.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "temp_path.h"

namespace qf::obs {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

MetricsSink::SnapshotFn SnapshotOf(const MetricsRegistry& registry) {
  return [&registry] { return registry.Snapshot(); };
}

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char c : text) n += (c == '\n');
  return n;
}

class ObsSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    jsonl_path_ = TestTempPath("sink.jsonl");
    prom_path_ = TestTempPath("sink.prom");
    std::remove(jsonl_path_.c_str());
    std::remove(prom_path_.c_str());
  }
  void TearDown() override {
    std::remove(jsonl_path_.c_str());
    std::remove(prom_path_.c_str());
  }
  std::string jsonl_path_, prom_path_;
};

TEST_F(ObsSinkTest, WriteOnceEmitsBothFormats) {
  MetricsRegistry registry;
  registry.GetCounter("qf_test_total", "test counter").Add(5);
  registry.GetHistogram("qf_test_ns", "test histogram", "ns").Record(123);

  MetricsSink sink(SnapshotOf(registry), {jsonl_path_, prom_path_, 1000});
  ASSERT_TRUE(sink.WriteOnce());

  const std::string jsonl = Slurp(jsonl_path_);
  EXPECT_EQ(CountLines(jsonl), 1u);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(jsonl, &doc, &error)) << error;
  EXPECT_EQ(doc.Get("counters")->Get("qf_test_total")->NumberOr(0), 5.0);

  const PromValidation v = ValidatePrometheusText(Slurp(prom_path_));
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_GT(v.samples, 0u);
}

TEST_F(ObsSinkTest, JsonlAppendsOneLinePerSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("qf_test_total").Add(1);
  MetricsSink sink(SnapshotOf(registry), {jsonl_path_, "", 1000});
  ASSERT_TRUE(sink.WriteOnce());
  registry.GetCounter("qf_test_total").Add(1);
  ASSERT_TRUE(sink.WriteOnce());
  const std::string jsonl = Slurp(jsonl_path_);
  EXPECT_EQ(CountLines(jsonl), 2u);
  // The newest line reflects the newest counter value.
  const size_t last_start = jsonl.rfind("{\"ts_ns\"");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(jsonl.substr(last_start), &doc, &error)) << error;
  EXPECT_EQ(doc.Get("counters")->Get("qf_test_total")->NumberOr(0), 2.0);
}

TEST_F(ObsSinkTest, StartStopWritesAtLeastAFinalSnapshot) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("qf_test_total");
  MetricsSink sink(SnapshotOf(registry), {jsonl_path_, prom_path_, 20});
  sink.Start();
  for (int i = 0; i < 50; ++i) {
    c.Add();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sink.Stop();  // joins, then writes one final snapshot

  const std::string jsonl = Slurp(jsonl_path_);
  ASSERT_GE(CountLines(jsonl), 1u);
  const size_t last_start = jsonl.rfind("{\"ts_ns\"");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(jsonl.substr(last_start), &doc, &error)) << error;
  // The final snapshot runs after Stop() joins the writer, so it must see
  // every Add made before Stop() returned.
  EXPECT_EQ(doc.Get("counters")->Get("qf_test_total")->NumberOr(0), 50.0);
  EXPECT_TRUE(ValidatePrometheusText(Slurp(prom_path_)).ok);
}

TEST_F(ObsSinkTest, WriteOnceFailsOnUnwritablePath) {
  MetricsRegistry registry;
  MetricsSink sink(SnapshotOf(registry),
                   {"/nonexistent-dir/qf.jsonl", "", 1000});
  EXPECT_FALSE(sink.WriteOnce());
}

TEST_F(ObsSinkTest, StopIsIdempotentAndSafeWithoutStart) {
  MetricsRegistry registry;
  MetricsSink sink(SnapshotOf(registry), {jsonl_path_, "", 1000});
  sink.Stop();
  sink.Stop();
}

}  // namespace
}  // namespace qf::obs
