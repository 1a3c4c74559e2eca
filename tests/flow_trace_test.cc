#include "stream/flow_trace.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "temp_path.h"

namespace qf {
namespace {

TEST(FlowTraceTest, ParsesWellFormedRecord) {
  Item item;
  ASSERT_TRUE(
      ParseFlowRecord("10.0.0.1,10.0.0.2,443,51234,6,12.5", &item));
  FiveTuple expected{0x0A000001, 0x0A000002, 443, 51234, 6};
  EXPECT_EQ(item.key, FlowKey(expected));
  EXPECT_DOUBLE_EQ(item.value, 12.5);
}

TEST(FlowTraceTest, SameTupleSameKey) {
  Item a, b;
  ASSERT_TRUE(ParseFlowRecord("1.2.3.4,5.6.7.8,80,81,17,1.0", &a));
  ASSERT_TRUE(ParseFlowRecord("1.2.3.4,5.6.7.8,80,81,17,99.0", &b));
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.value, b.value);
}

TEST(FlowTraceTest, RejectsMalformedRecords) {
  Item item;
  EXPECT_FALSE(ParseFlowRecord("", &item));
  EXPECT_FALSE(ParseFlowRecord("10.0.0.1,10.0.0.2,443,51234,6", &item));
  EXPECT_FALSE(ParseFlowRecord("10.0.0.1,10.0.0.2,443,51234,6,1,extra",
                               &item));
  EXPECT_FALSE(ParseFlowRecord("bogus,10.0.0.2,443,51234,6,1.0", &item));
  EXPECT_FALSE(ParseFlowRecord("10.0.0.1,10.0.0.2,99999,51234,6,1.0",
                               &item));
  EXPECT_FALSE(ParseFlowRecord("10.0.0.1,10.0.0.2,443,51234,999,1.0",
                               &item));
  EXPECT_FALSE(ParseFlowRecord("10.0.0.1,10.0.0.2,443,51234,6,notnum",
                               &item));
}

TEST(FlowTraceTest, ReadsFileSkippingCommentsAndJunk) {
  std::string path = TestTempPath("flows.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f,
               "# flow trace\n"
               "10.0.0.1,10.0.0.2,443,51234,6,12.5\n"
               "garbage line\n"
               "\n"
               "10.0.0.3,10.0.0.4,80,1024,17,3.25\r\n");
  std::fclose(f);

  Trace trace;
  size_t skipped = 0;
  ASSERT_TRUE(ReadFlowTrace(path, &trace, &skipped));
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(skipped, 1u);  // only "garbage line"; comments/blank don't count
  EXPECT_DOUBLE_EQ(trace[1].value, 3.25);
  std::remove(path.c_str());
}

TEST(FlowTraceTest, MissingFileFails) {
  Trace trace;
  EXPECT_FALSE(ReadFlowTrace("/nonexistent/flows.csv", &trace));
}

}  // namespace
}  // namespace qf
