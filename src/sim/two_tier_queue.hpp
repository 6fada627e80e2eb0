// Two-tier pending-event set for the sharded engine (sim::ShardEngine).
//
// Pops in exactly sim::EventQueue's (time, insertion) order, but is built for
// a large, far-spread pending set that never cancels: every peer of a scale
// run keeps a few timers pending hundreds of seconds ahead, so a single heap
// over all of them spills out of cache and each pop walks it from memory.
// Here only the near future is a heap:
//   - a small (time, seq) min-heap holds every event whose coarse time bucket
//     is <= the current bucket;
//   - a ring of unsorted buckets holds the events of the next `buckets - 1`
//     buckets, appended as they arrive;
//   - events beyond the ring's span wait in an overflow heap and move into
//     the ring as it advances.
// When the heap empties, the next non-empty bucket is moved into it whole.
// Every event of a bucket <= the current one is in the heap, so the heap top
// is the global minimum; equal times share a bucket, so the heap's seq
// compare keeps their insertion order.
//
// The tiers hold compact 16-byte keys; the callbacks stay put in a slab
// until popped. A bucket's storage becomes the heap when it is drained, and
// empty ring slots hold none.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time_key.hpp"
#include "util/types.hpp"

namespace dpjit::sim {

class TwoTierQueue {
 public:
  /// Buckets `bucket_width` seconds wide; the ring spans `buckets` of them
  /// (a power of two >= 2). Throws std::invalid_argument otherwise.
  TwoTierQueue(double bucket_width, std::size_t buckets);

  /// Adds `fn` at time `t` (any time but NaN).
  void push(SimTime t, EventFn fn);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const {
    assert(!heap_.empty());
    return decode_time(heap_.front().tkey);
  }

  /// Removes and returns the earliest pending event. Requires !empty().
  std::pair<SimTime, EventFn> pop();

 private:
  /// (time, seq) sort key of one pending event: `order` packs
  /// seq << kSlotBits | slot, so comparing it compares seq (unique).
  struct Key {
    std::uint64_t tkey;
    std::uint64_t order;
  };

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Heap order for std::*_heap: "a pops after b".
  [[nodiscard]] static bool after(const Key& a, const Key& b) {
    return a.tkey != b.tkey ? a.tkey > b.tkey : a.order > b.order;
  }

  /// Coarse bucket of `t`: monotone in t, so t1 < t2 never maps t1 later.
  [[nodiscard]] std::uint64_t bucket_of(SimTime t) const;

  /// Files `k` (bucket `b`) into the heap, the ring or the overflow.
  void route(const Key& k, std::uint64_t b);

  /// Advances the current bucket until the heap is non-empty. Requires an
  /// empty heap and size_ > 0.
  void refill();

  std::vector<EventFn> fns_;          ///< callback slab, indexed by slot
  std::vector<std::uint32_t> free_;   ///< free slab slots (LIFO)
  std::vector<Key> heap_;             ///< events of buckets <= cur_
  std::vector<std::vector<Key>> ring_;  ///< bucket b lives at b & mask_
  std::vector<Key> overflow_;         ///< heap of events beyond the ring
  double inv_width_ = 0.0;
  std::uint64_t mask_ = 0;
  std::uint64_t cur_ = 0;             ///< current bucket
  std::size_t ring_size_ = 0;         ///< events held in ring_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dpjit::sim
