// Pending-event set for the discrete-event engine.
//
// Events are (time, sequence) ordered: ties on time are broken by insertion
// order, which makes runs bit-reproducible. Storage is a slab of event slots
// (free-list reuse, generation-counted handles) indexed by a 4-ary heap, so
// schedule/pop/cancel never hash and cancellation is true O(log n) removal:
// a cancelled event leaves no tombstone behind and its callback is destroyed
// immediately. A handle from a freed slot is rejected by the generation
// check, so double-cancel and cancel-after-fire are safe no-ops.
//
// A producer that batches events outside the queue (the gossip layer's
// delivery rounds) reserves each event's sequence number at the moment it
// would have scheduled it, and schedules it later under that number: the
// (time, seq) order is then exactly what scheduling at reservation time gives.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time_key.hpp"
#include "util/types.hpp"

namespace dpjit::sim {

class EventQueue {
 public:
  /// Opaque handle for cancellation. Packs (generation << 24 | slot index):
  /// 24 bits bound the slab at ~16M *concurrently pending* events, leaving
  /// 40 generation bits per slot. The steady pop-then-schedule pattern
  /// funnels nearly every event through one hot slot, so generation width is
  /// what defends long runs against ABA on stale handles: 2^40 reuses of a
  /// single slot (~2 weeks of continuous events at 1M events/s) before a
  /// wrap, vs ~80 minutes had it been 32-bit. Generations whose packed bits
  /// are zero are skipped, so no valid handle ever equals kInvalidHandle.
  using Handle = std::uint64_t;

  /// Never returned by schedule_reserved(); cancel(kInvalidHandle) is a safe
  /// no-op.
  static constexpr Handle kInvalidHandle = 0;

  /// Takes the next insertion sequence number. Events pop in (time, seq)
  /// order, so a number reserved now orders the later event exactly where an
  /// event scheduled now would have gone.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `fn` at time `t` under a sequence number from reserve_seq().
  /// Each reserved number may be used once. Returns a cancellation handle.
  Handle schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn);

  /// True when an event keyed (t, seq) would pop before every pending one
  /// (always, when the queue is empty).
  [[nodiscard]] bool precedes_next(SimTime t, std::uint64_t seq) const {
    return heap_.empty() || before(HeapEntry{encode_time(t), seq, 0}, heap_.front());
  }

  /// Cancels a pending event, destroying its callback and freeing its slot.
  /// Returns false if it already fired/was cancelled (stale generation).
  bool cancel(Handle h);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of live (not cancelled) events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] SimTime next_time() const {
    assert(!heap_.empty());
    return decode_time(heap_.front().tkey);
  }

  /// Pops and returns the earliest live event. Requires !empty().
  std::pair<SimTime, EventFn> pop();

  /// Pre-sizes the slab and heap for `n` concurrently pending events.
  void reserve(std::size_t n);

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffU;

  /// Callback + handle bookkeeping; the (time, seq) sort key lives in the
  /// heap entries so comparisons stay on the contiguous heap array and never
  /// chase into the slab. The slot's heap position lives in the separate
  /// dense pos_ array: sift operations store a position per level, and those
  /// stores should land in a few cache lines, not across the 80-byte slots.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1U << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 40) - 1;

  struct Slot {
    EventFn fn;
    std::uint64_t generation = 1;
    std::uint32_t next_free = kNpos;  ///< free-list link
  };

  struct HeapEntry {
    std::uint64_t tkey;  ///< order-preserving integer encoding of the time
    std::uint64_t seq;   ///< insertion order, breaks ties on equal time
    std::uint32_t slot;
  };

  /// Branchless (time, seq) lexicographic order: pop sifts the heap with
  /// effectively random keys, and mispredicted compare branches dominate its
  /// cost otherwise.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    return static_cast<bool>(
        static_cast<unsigned>(a.tkey < b.tkey) |
        (static_cast<unsigned>(a.tkey == b.tkey) & static_cast<unsigned>(a.seq < b.seq)));
  }

  /// Index of the smallest child of the node whose first child is `c`.
  /// Requires c < n.
  [[nodiscard]] static std::size_t min_child(const HeapEntry* h, std::size_t c, std::size_t n);

  /// Places `e` at `pos`, sifting up/down as needed; updates heap_pos links.
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  /// Removes the heap entry at `pos` (swap-with-last + re-sift).
  void heap_erase(std::size_t pos);
  /// Returns the slot to the free list and invalidates outstanding handles.
  void release_slot(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> pos_;  ///< slot -> heap index; kNpos while free
  std::vector<HeapEntry> heap_;     ///< 4-ary min-heap keyed by (time, seq)
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dpjit::sim
