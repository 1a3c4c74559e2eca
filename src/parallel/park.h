// Futex-based thread parking for the ingest pipeline (DESIGN.md §13).
//
// The pipeline's original waits were all `std::this_thread::yield()` spins.
// On a machine with more runnable threads than cores that is actively
// harmful: an idle shard worker spinning on its empty ring burns exactly the
// core a busy shard needs, which is how pipeline-8 came to run at 0.28x
// scalar on the committed numbers. ParkingSpot gives every waiter a real
// blocking state with a three-phase backoff — spin (cheap, covers the
// common sub-microsecond handoff), yield (covers "the other thread is
// runnable but descheduled"), park (futex wait: the kernel frees the core).
//
// Lost-wakeup protocol (two-sided Dekker with seq_cst fences):
//
//       waiter                              waker
//   ───────────────────────────────    ──────────────────────────────
//   state := kParked   (relaxed)       publish work  (release store)
//   seq_cst fence                      seq_cst fence
//   re-check work predicate            if state == kParked:
//   if work: state := kAwake; return     state := kAwake
//   futex_wait(state, kParked)           futex_wake(state)
//
// Both sides store before fencing and load after, so at least one side
// observes the other: either the waiter sees the new work and never sleeps,
// or the waker sees kParked and wakes. The work payload itself is still
// published by the channel's own release/acquire pair (SPSC ring indices,
// control-slot pointers) — the fence protocol only covers the sleep/wake
// decision, which keeps the scheme TSan-clean.
//
// Linux-only (SYS_futex), like the rest of the serving stack.

#ifndef QUANTILEFILTER_PARALLEL_PARK_H_
#define QUANTILEFILTER_PARALLEL_PARK_H_

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace qf {

/// One CPU relax hint: `pause` on x86 (de-pipelines the spin loop and
/// yields the core's SMT sibling), `yield` on arm, no-op elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// A single-waiter parking spot. One thread parks on it (the pipeline's
/// worker, or the dispatcher waiting out backpressure); any number of
/// threads may wake it. The waiter must re-check its work predicate between
/// PreparePark and Park (see the protocol above); Wake() is cheap when
/// nobody is parked (one fence + one relaxed load, no syscall).
class ParkingSpot {
 public:
  /// Waiter side, step 1: announce intent to sleep. After this returns the
  /// caller MUST re-check its work predicate and either CancelPark() (work
  /// arrived) or Park() (commit to sleeping).
  void PreparePark() {
    state_.store(kParked, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Waiter side: found work after PreparePark — do not sleep.
  void CancelPark() { state_.store(kAwake, std::memory_order_relaxed); }

  /// Waiter side, step 2: sleep until a waker flips the state. Spurious
  /// returns are fine — callers loop on their work predicate anyway.
  void Park() {
    if (state_.load(std::memory_order_acquire) != kParked) return;
    FutexWait(&state_, kParked);
    state_.store(kAwake, std::memory_order_relaxed);
  }

  /// Waker side: call after publishing work (with release semantics on the
  /// work channel). Fences, then wakes the waiter iff it is parked (or
  /// about to park — the fence pairing guarantees one side sees the other).
  /// Returns true when a parked waiter was actually woken.
  bool Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (state_.load(std::memory_order_relaxed) == kParked) {
      uint32_t expected = kParked;
      if (state_.compare_exchange_strong(expected, kAwake,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        FutexWake(&state_);
        return true;
      }
    }
    return false;
  }

  /// Direct futex wait/wake on a caller-owned word, for one-shot events
  /// that live outside a ParkingSpot (ShardRequest::done). The caller
  /// provides the full protocol: WaitWhile sleeps only while *word ==
  /// `while_value`, and the waker stores then WakeAll()s.
  static void WaitWhile(std::atomic<uint32_t>* word, uint32_t while_value) {
    FutexWait(word, while_value);
  }
  static void WakeAll(std::atomic<uint32_t>* word) { FutexWake(word, INT32_MAX); }

 private:
  static constexpr uint32_t kAwake = 0;
  static constexpr uint32_t kParked = 1;

  static void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
  }
  static void FutexWake(std::atomic<uint32_t>* word, int nwaiters = 1) {
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            FUTEX_WAKE_PRIVATE, nwaiters, nullptr, nullptr, 0);
  }

  std::atomic<uint32_t> state_{kAwake};
};

/// Graduated wait: kSpin polls with CpuRelax, then kYields scheduler
/// yields, then reports "park now". Reset() after finding work. The
/// spin/yield budget is deliberately small — parking is cheap (one futex
/// round trip ≈ 1-2 µs) compared with a core-stealing spin.
class AdaptiveBackoff {
 public:
  static constexpr uint32_t kSpins = 256;
  static constexpr uint32_t kYields = 16;

  /// One backoff step. Returns true when the caller should park.
  bool ShouldPark() {
    if (step_ < kSpins) {
      ++step_;
      CpuRelax();
      return false;
    }
    if (step_ < kSpins + kYields) {
      ++step_;
      std::this_thread::yield();
      return false;
    }
    return true;
  }

  void Reset() { step_ = 0; }

 private:
  uint32_t step_ = 0;
};

}  // namespace qf

#endif  // QUANTILEFILTER_PARALLEL_PARK_H_
