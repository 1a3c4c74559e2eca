// Lock-free single-producer / single-consumer ring buffer.
//
// The ingest pipeline (parallel/pipeline.h) connects its dispatcher thread
// to each shard worker with one of these: exactly one thread pushes and
// exactly one thread pops, which lets every operation complete with one
// acquire load, one release store and no CAS. Head and tail live on their
// own cache lines to avoid false sharing, and each side keeps a cached copy
// of the opposite index so the common case touches no shared line at all
// (the "cached index" optimization from Rigtorp's SPSCQueue / LMAX
// Disruptor lineage).
//
// Slot storage is raw and uninitialized (as in folly's
// ProducerConsumerQueue): a slot holds a live T only between the push that
// constructs it and the pop that destroys it. Construction therefore writes
// no slot, and a slot's page is committed when the first push writes it: a
// ring sized for bursts costs, at boot, nothing for capacity it never uses.
//
// Correctness contract:
//   * TryPush may be called by one thread at a time (the producer);
//   * TryPop may be called by one thread at a time (the consumer);
//   * producer and consumer may run concurrently with no other
//     synchronization — release/acquire pairs on the indices order the
//     element payloads.
//
// Wake hooks (parallel/park.h): either side may install a ParkingSpot for
// the opposite side. A successful TryPush then wakes a parked consumer and
// a successful TryPop wakes a parked producer, after the index store that
// publishes the transfer — so a thread that parked on "ring empty"/"ring
// full" is guaranteed a wakeup for the push/pop that changed the answer
// (ParkingSpot's fence protocol closes the decide-to-sleep race). Hooks are
// installed before the threads start and are fence-protected no-ops when
// the other side is awake.

#ifndef QUANTILEFILTER_PARALLEL_SPSC_RING_H_
#define QUANTILEFILTER_PARALLEL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/memory.h"
#include "parallel/park.h"

namespace qf {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded down to a power of two (minimum 2) so index
  /// wrapping is a mask, not a modulo.
  explicit SpscRing(size_t min_capacity)
      : capacity_(FloorPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(std::allocator<T>().allocate(capacity_)) {}

  /// Destroys the values still queued in [head, tail). Both sides must have
  /// stopped (joined) before the ring is destroyed.
  ~SpscRing() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      const uint64_t tail = tail_.load(std::memory_order_relaxed);
      for (uint64_t i = head_.load(std::memory_order_relaxed); i != tail;
           ++i) {
        std::destroy_at(&slots_[i & mask_]);
      }
    }
    std::allocator<T>().deallocate(slots_, capacity_);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return capacity_; }

  /// Install wake hooks (before the producer/consumer threads start).
  /// `consumer` is woken by TryPush, `producer` by TryPop; nullptr disables.
  void SetConsumerWaiter(ParkingSpot* spot) { consumer_waiter_ = spot; }
  void SetProducerWaiter(ParkingSpot* spot) { producer_waiter_ = spot; }

  /// Producer side. Returns false (and leaves `value` unmoved-from
  /// observable state aside) if the ring is full.
  bool TryPush(T&& value) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    std::construct_at(&slots_[tail & mask_], std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    if (consumer_waiter_ != nullptr) consumer_waiter_->Wake();
    return true;
  }
  bool TryPush(const T& value) {
    T copy = value;
    return TryPush(std::move(copy));
  }

  /// Consumer side. Returns false if the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    T* slot = &slots_[head & mask_];
    *out = std::move(*slot);
    std::destroy_at(slot);
    head_.store(head + 1, std::memory_order_release);
    if (producer_waiter_ != nullptr) producer_waiter_->Wake();
    return true;
  }

  /// Consumer-side emptiness test: exact when called from the consumer
  /// thread. head_ is owned by the caller and tail_ is acquire-loaded, so
  /// `true` means every push that happened-before this call has already
  /// been popped (unlike TryPop's fast path, this never trusts the cached
  /// tail).
  bool ConsumerEmpty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy; exact only from the calling side's perspective.
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

 private:
  static constexpr size_t kCacheLine = 64;

  const size_t capacity_;
  const size_t mask_;
  T* const slots_;  // capacity_ slots; live exactly in [head_, tail_)

  // Producer-owned: tail_ plus its cached view of head_.
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
  // Consumer-owned: head_ plus its cached view of tail_.
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;

  // Wake hooks: read by the opposite side after its index store; set before
  // the threads start (no synchronization of their own).
  ParkingSpot* consumer_waiter_ = nullptr;
  ParkingSpot* producer_waiter_ = nullptr;
};

}  // namespace qf

#endif  // QUANTILEFILTER_PARALLEL_SPSC_RING_H_
