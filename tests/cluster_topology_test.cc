// Slot topology tests (DESIGN.md §16): SlotForKey must be the exact
// key->shard reduction ShardedQuantileFilter uses — that identity is what
// makes a coordinator-fronted cluster answer QUERY bit-identically to a
// single process — plus address and migrate-spec parsing and the
// ownership table.

#include "cluster/topology.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/quantile_filter.h"
#include "core/sharded_filter.h"
#include "net/protocol.h"
#include "sketch/count_sketch.h"

namespace qf::cluster {
namespace {

TEST(SlotForKeyTest, MatchesShardedFilterShardFor) {
  using Sharded = ShardedQuantileFilter<CountSketch<int32_t>>;
  QuantileFilter<CountSketch<int32_t>>::Options o;
  o.memory_bytes = 64 * 1024;
  for (const int shards : {1, 2, 3, 6, 16}) {
    const Sharded filter(o, Criteria(), shards);
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
      const uint64_t key = rng.Next();
      EXPECT_EQ(SlotForKey(key, static_cast<uint32_t>(shards)),
                static_cast<uint32_t>(filter.ShardFor(key)))
          << "key " << key << ", shards " << shards;
    }
  }
}

TEST(SplitHostPortTest, AcceptsAndRejects) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(SplitHostPort("127.0.0.1:7171", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7171);
  ASSERT_TRUE(SplitHostPort("example.com:65535", &host, &port));
  EXPECT_EQ(port, 65535);

  for (const char* bad :
       {"", "127.0.0.1", ":7171", "127.0.0.1:", "127.0.0.1:0",
        "127.0.0.1:65536", "127.0.0.1:7171x", "127.0.0.1:x"}) {
    host = "untouched";
    port = 9;
    EXPECT_FALSE(SplitHostPort(bad, &host, &port)) << bad;
    // Outputs only change on success.
    EXPECT_EQ(host, "untouched") << bad;
    EXPECT_EQ(port, 9) << bad;
  }
}

TEST(ParseMigrateSpecTest, AcceptsAndRejects) {
  struct Case {
    const char* spec;
    bool ok;
    uint32_t slot;
    uint32_t backend;
  };
  const Case cases[] = {
      {"3:1", true, 3, 1},
      {"0:0", true, 0, 0},
      {"4294967295:4294967295", true, 4294967295u, 4294967295u},
      {"x:1", false, 0, 0},
      {"7x:1", false, 0, 0},
      {"1:", false, 0, 0},
      {":1", false, 0, 0},
      {"-1:2", false, 0, 0},
      {"+1:2", false, 0, 0},
      {"4294967296:0", false, 0, 0},
      {"0:4294967296", false, 0, 0},
      {"1:2:3", false, 0, 0},
      {"1 :2", false, 0, 0},
      {"12", false, 0, 0},
      {"", false, 0, 0},
  };
  for (const Case& c : cases) {
    uint32_t slot = 77;
    uint32_t backend = 88;
    EXPECT_EQ(ParseMigrateSpec(c.spec, &slot, &backend), c.ok) << c.spec;
    // Outputs only change on success.
    EXPECT_EQ(slot, c.ok ? c.slot : 77u) << c.spec;
    EXPECT_EQ(backend, c.ok ? c.backend : 88u) << c.spec;
  }
}

TEST(TopologyTest, RoundRobinPlacementAndFlip) {
  Topology topo({"a:1", "b:2", "c:3"}, 7);
  EXPECT_EQ(topo.num_backends(), 3u);
  EXPECT_EQ(topo.num_slots(), 7u);
  EXPECT_EQ(topo.epoch(), 1u);
  for (uint32_t s = 0; s < 7; ++s) {
    EXPECT_EQ(topo.OwnerOf(s), s % 3) << "slot " << s;
  }
  topo.Flip(4, 0);
  EXPECT_EQ(topo.OwnerOf(4), 0u);
  EXPECT_EQ(topo.epoch(), 2u);
  // Other slots untouched.
  EXPECT_EQ(topo.OwnerOf(3), 0u);
  EXPECT_EQ(topo.OwnerOf(5), 2u);
}

TEST(TopologyTest, ToWireRoundTripsThroughCodec) {
  Topology topo({"127.0.0.1:7181", "127.0.0.1:7182"}, 4);
  topo.Flip(1, 0);
  const net::WireTopology wire = topo.ToWire(
      {net::BackendState::kReady, net::BackendState::kConnecting});

  std::vector<uint8_t> payload;
  net::EncodeTopologyPayloadTo(wire, &payload);
  net::WireTopology parsed;
  ASSERT_TRUE(net::ParseTopologyPayload(payload, &parsed));
  EXPECT_EQ(parsed.epoch, 2u);
  ASSERT_EQ(parsed.backends.size(), 2u);
  EXPECT_EQ(parsed.backends[0].addr, "127.0.0.1:7181");
  EXPECT_EQ(parsed.backends[0].state, net::BackendState::kReady);
  EXPECT_EQ(parsed.backends[1].state, net::BackendState::kConnecting);
  ASSERT_EQ(parsed.owner.size(), 4u);
  EXPECT_EQ(parsed.owner[1], 0u);
  EXPECT_EQ(parsed.owner[3], 1u);
}

}  // namespace
}  // namespace qf::cluster
