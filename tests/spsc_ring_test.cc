#include "parallel/spsc_ring.h"

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resident_memory.h"

namespace qf {
namespace {

TEST(SpscRingTest, CapacityRoundsDownToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(100).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    int v = -1;
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(ring.TryPop(&v));  // empty
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(4);
  uint64_t next_pop = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    if (i % 3 == 0) {
      uint64_t v;
      ASSERT_TRUE(ring.TryPop(&v));
      EXPECT_EQ(v, next_pop++);
    }
    // Drain fully every few pushes to exercise empty/full boundaries.
    if (ring.SizeApprox() == ring.capacity()) {
      uint64_t v;
      while (ring.TryPop(&v)) EXPECT_EQ(v, next_pop++);
    }
  }
}

TEST(SpscRingTest, MovesValuesThrough) {
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> payload{1, 2, 3};
  ASSERT_TRUE(ring.TryPush(std::move(payload)));
  std::vector<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(SpscRingTest, ProducerConsumerTransfersEverythingInOrder) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 1'000'000;

  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) std::this_thread::yield();
    }
  });

  uint64_t sum = 0;
  uint64_t expected_next = 0;
  bool in_order = true;
  for (uint64_t received = 0; received < kCount;) {
    uint64_t v;
    if (ring.TryPop(&v)) {
      in_order = in_order && (v == expected_next);
      ++expected_next;
      sum += v;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
  uint64_t leftover;
  EXPECT_FALSE(ring.TryPop(&leftover));
}

TEST(SpscRingTest, ConstructionCommitsNoSlotMemory) {
  QF_SKIP_IF_RSS_MEANINGLESS();
  constexpr int64_t kMiB = 1 << 20;
  // 64 MiB of slots: above glibc's largest mmap threshold (32 MiB), so the
  // storage is always fresh, uncommitted pages.
  constexpr size_t kSlots = size_t{1} << 23;
  const int64_t before = ResidentBytes();
  ASSERT_GE(before, 0) << "/proc/self/statm unreadable";
  SpscRing<uint64_t> ring(kSlots);
  ASSERT_EQ(ring.capacity(), kSlots);
  const int64_t built = ResidentBytes();
  EXPECT_LT(built - before, kMiB) << "construction wrote the slots";

  // Pushes commit the pages they write, and only those: 4 MiB of slots,
  // plus at most one transparent huge page and 1 MiB of slack.
  constexpr uint64_t kPushes = uint64_t{1} << 19;
  for (uint64_t i = 0; i < kPushes; ++i) ASSERT_TRUE(ring.TryPush(i));
  const int64_t touched = static_cast<int64_t>(kPushes * sizeof(uint64_t));
  const int64_t pushed = ResidentBytes();
  EXPECT_GE(pushed - built, touched / 2);
  EXPECT_LE(pushed - built, touched + 2 * kMiB + kMiB);
}

// Tracks every live Counted by address, so a destroy of a slot that holds
// no value (or a second destroy of one) is caught, not just miscounted.
struct Counted {
  static std::set<const Counted*>& Live() {
    static std::set<const Counted*> live;
    return live;
  }
  static inline int bad_destroys = 0;

  explicit Counted(int v = -1) : value(v) { Live().insert(this); }
  Counted(const Counted& o) : value(o.value) { Live().insert(this); }
  Counted(Counted&& o) noexcept : value(o.value) { Live().insert(this); }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() {
    if (Live().erase(this) != 1) ++bad_destroys;
  }

  int value;
};

TEST(SpscRingTest, DestroysUnpoppedValuesExactlyOnce) {
  Counted::Live().clear();
  Counted::bad_destroys = 0;
  {
    SpscRing<Counted> ring(8);
    EXPECT_EQ(Counted::Live().size(), 0u) << "construction built slots";
    Counted out;
    // Wrap the indices a few times so the leftovers straddle the end of
    // the slot array.
    int next_push = 0;
    int next_pop = 0;
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(ring.TryPush(Counted(next_push++)));
      }
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(ring.TryPop(&out));
        EXPECT_EQ(out.value, next_pop++);
      }
    }
    EXPECT_EQ(Counted::Live().size(), 1u);  // just `out`
    // head is at 30 (slot 6): the 6 left unpopped sit in slots 7, 0..4.
    constexpr int kPushed = 7;
    constexpr int kPopped = 1;
    for (int i = 0; i < kPushed; ++i) {
      ASSERT_TRUE(ring.TryPush(Counted(next_push++)));
    }
    for (int i = 0; i < kPopped; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out.value, next_pop++);
    }
    EXPECT_EQ(Counted::Live().size(), 1u + (kPushed - kPopped));
  }
  EXPECT_EQ(Counted::Live().size(), 0u) << "unpopped values leaked";
  EXPECT_EQ(Counted::bad_destroys, 0) << "a slot was destroyed twice";
}

}  // namespace
}  // namespace qf
