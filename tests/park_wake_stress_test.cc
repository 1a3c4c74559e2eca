// Stress tests for the futex-parking protocol (parallel/park.h) and its use
// in the pipeline (DESIGN.md §13). The interesting bugs here are lost
// wakeups — a waiter that commits to sleeping after the last wake was
// delivered sleeps forever — so the tests are shaped to hang (and trip the
// ctest timeout) if the PreparePark/recheck/Park fence protocol is wrong,
// and they run under the tsan preset via the sanitizer_concurrency entry.

#include "parallel/park.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_filter.h"
#include "parallel/pipeline.h"

namespace qf {
namespace {

// Many wakers hammer one parking waiter through a counter of pending work
// units. Every produced unit is followed by a Wake(); the waiter re-checks
// the counter between PreparePark and Park. If any wakeup were lost the
// waiter would sleep with work pending and the join below would hang.
TEST(ParkingSpotStressTest, NoLostWakeupsUnderProducerChurn) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 50000;
  ParkingSpot spot;
  std::atomic<uint64_t> pending{0};
  std::atomic<uint64_t> consumed{0};

  std::thread waiter([&] {
    while (consumed.load(std::memory_order_relaxed) <
           kProducers * kPerProducer) {
      uint64_t avail = pending.load(std::memory_order_acquire);
      if (avail > 0) {
        if (pending.compare_exchange_strong(avail, avail - 1,
                                            std::memory_order_acq_rel)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      spot.PreparePark();
      if (pending.load(std::memory_order_acquire) > 0) {
        spot.CancelPark();
        continue;
      }
      spot.Park();  // hangs here forever iff a wakeup can be lost
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        pending.fetch_add(1, std::memory_order_release);
        spot.Wake();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  waiter.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(pending.load(), 0u);
}

// The one-shot flavour used by ShardRequest::done: several waiters park on
// a caller-owned futex word; one store + WakeAll releases them all.
TEST(ParkingSpotStressTest, WaitWhileReleasesEveryWaiterOnWakeAll) {
  constexpr int kWaiters = 8;
  std::atomic<uint32_t> word{0};
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      AdaptiveBackoff backoff;
      while (word.load(std::memory_order_acquire) == 0) {
        if (backoff.ShouldPark()) ParkingSpot::WaitWhile(&word, 0);
      }
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  word.store(1, std::memory_order_release);
  ParkingSpot::WakeAll(&word);
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(released.load(), kWaiters);
}

using Pipeline = IngestPipeline<CountSketch<int16_t>>;
using Sharded = ShardedQuantileFilter<CountSketch<int16_t>>;

Sharded MakeSharded(int shards) {
  typename Sharded::Filter::Options options;
  options.memory_bytes = 64 * 1024;
  options.seed = 7;
  return Sharded(options, Criteria(5.0, 0.9, 100.0), shards);
}

// Control requests must complete when every worker is futex-parked: the
// slot post's Wake() has to get each worker out of Park() (not just out of
// a spin), and the fence must then observe fully drained rings.
TEST(PipelineParkStressTest, FenceAndQueryCompleteWithAllWorkersParked) {
  Sharded sharded = MakeSharded(4);
  Pipeline::Options popts;
  popts.ring_batches = 4;  // small rings: 64-item quarter-arena spans
  Pipeline pipeline(sharded, popts);
  pipeline.Start();
  for (uint64_t key = 0; key < 1000; ++key) {
    pipeline.Push(key, 150.0);
    if (key % 8 == 7) pipeline.Flush();
  }
  pipeline.Flush();
  // Give every worker time to run its backoff ladder to the futex. The
  // assertions below do not depend on parking having happened (a loaded
  // machine may deschedule workers earlier), but with 4 workers, one core
  // and a 50 ms idle window, parks are overwhelmingly likely — and the
  // fence/query wakes must work either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int round = 0; round < 3; ++round) {
    pipeline.Fence();  // hangs iff a parked worker misses the slot wake
    for (uint64_t key = 0; key < 16; ++key) {
      (void)pipeline.Query(key);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const Pipeline::Totals after = pipeline.totals();
  EXPECT_EQ(after.items_processed, after.items_dispatched);
  pipeline.Stop();
}

// Park/wake churn under real load: a producer on slot 1 streams items with
// idle gaps (forcing workers to park and re-wake constantly) while the main
// thread issues fences and queries through slot 0. Lost wakeups on either
// the worker or the control side hang the test; TSan validates the fence
// protocol's memory ordering.
TEST(PipelineParkStressTest, FlushFenceChurnAgainstParkedWorkers) {
  Sharded sharded = MakeSharded(4);
  Pipeline::Options popts;
  popts.ring_batches = 4;
  popts.num_producers = 2;
  Pipeline pipeline(sharded, popts);
  pipeline.Start();

  constexpr uint64_t kBursts = 200;
  constexpr uint64_t kPerBurst = 500;
  std::thread producer([&] {
    uint64_t x = 1;
    for (uint64_t burst = 0; burst < kBursts; ++burst) {
      for (uint64_t i = 0; i < kPerBurst; ++i) {
        x = Mix64(x);
        pipeline.PushFrom(1, x % 4096, static_cast<double>(x % 400));
        if (i % 4 == 3) pipeline.FlushFrom(1);
      }
      pipeline.FlushFrom(1);
      if (burst % 16 == 0) {
        // Idle gap: workers drain everything and park; the next burst's
        // publish must wake them through the ring hook.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  for (int round = 0; round < 50; ++round) {
    pipeline.FenceFrom(0);
    uint64_t keys[8] = {1, 2, 3, 5, 8, 13, 21, 34};
    Pipeline::QueryAnswer answers[8];
    pipeline.QueryBatch(keys, answers);
  }
  producer.join();
  pipeline.FenceFrom(0);
  const Pipeline::Totals totals = pipeline.totals();
  EXPECT_EQ(totals.items_dispatched, kBursts * kPerBurst);
  EXPECT_EQ(totals.items_processed, totals.items_dispatched);
  pipeline.Stop();
}

// Several producers feed disjoint key ranges concurrently; after a global
// quiesce (every producer flushes) + fence, nothing may be lost or double
// counted, and per-shard reports must sum to the aggregate.
TEST(PipelineParkStressTest, MultiProducerQuiesceThenFenceDrainsEverything) {
  constexpr int kProducers = 3;
  constexpr uint64_t kPerProducer = 60000;
  Sharded sharded = MakeSharded(4);
  Pipeline::Options popts;
  popts.num_producers = kProducers;
  Pipeline pipeline(sharded, popts);
  pipeline.Start();

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t x = static_cast<uint64_t>(p) + 1;
      std::vector<Item> batch;
      batch.reserve(256);
      for (uint64_t i = 0; i < kPerProducer; i += 256) {
        batch.clear();
        for (uint64_t j = 0; j < 256 && i + j < kPerProducer; ++j) {
          x = Mix64(x);
          // Disjoint per-producer key ranges so cross-producer interleaving
          // cannot change any key's per-shard stream.
          const uint64_t key =
              static_cast<uint64_t>(p) * 1000000 + (x % 2000);
          batch.push_back(Item{key, static_cast<double>(x % 500)});
        }
        pipeline.PushBatchFrom(p, batch);
      }
      pipeline.FlushFrom(p);
    });
  }
  for (std::thread& t : producers) t.join();
  pipeline.FenceFrom(0);

  const Pipeline::Totals totals = pipeline.totals();
  EXPECT_EQ(totals.items_dispatched, kProducers * kPerProducer);
  EXPECT_EQ(totals.items_processed, totals.items_dispatched);
  uint64_t shard_sum = 0;
  for (int s = 0; s < pipeline.num_shards(); ++s) {
    shard_sum += pipeline.shard_reports(s);
  }
  EXPECT_EQ(shard_sum, totals.reports);
  pipeline.Stop();
}

}  // namespace
}  // namespace qf
