#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace dpjit::sim {

EventQueue::Handle EventQueue::schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn) {
  assert(seq < next_seq_);
  std::uint32_t slot;
  if (free_head_ != kNpos) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("EventQueue: more than 2^24 concurrently pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    pos_.emplace_back(kNpos);
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.next_free = kNpos;
  heap_.emplace_back();  // grow; sift_up fills the hole bottom-up
  sift_up(heap_.size() - 1, HeapEntry{encode_time(t), seq, slot});
  return ((s.generation & kGenMask) << kSlotBits) | slot;
}

bool EventQueue::cancel(Handle h) {
  const auto slot = static_cast<std::uint32_t>(h & kSlotMask);
  const std::uint64_t generation = h >> kSlotBits;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if ((s.generation & kGenMask) != generation || pos_[slot] == kNpos) return false;
  heap_erase(pos_[slot]);
  s.fn = nullptr;
  release_slot(slot);
  return true;
}

std::pair<SimTime, EventFn> EventQueue::pop() {
  assert(!heap_.empty());
  const HeapEntry root = heap_.front();
  Slot& s = slots_[root.slot];
  EventFn fn = std::move(s.fn);
  heap_erase(0);
  release_slot(root.slot);
  return {decode_time(root.tkey), std::move(fn)};
}

void EventQueue::reserve(std::size_t n) {
  slots_.reserve(n);
  pos_.reserve(n);
  heap_.reserve(n);
}

void EventQueue::sift_up(std::size_t pos, HeapEntry e) {
  HeapEntry* h = heap_.data();
  std::uint32_t* pos_of = pos_.data();
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(e, h[parent])) break;
    h[pos] = h[parent];
    pos_of[h[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  h[pos] = e;
  pos_of[e.slot] = static_cast<std::uint32_t>(pos);
}

std::size_t EventQueue::min_child(const HeapEntry* h, std::size_t c, std::size_t n) {
  if (c + 4 <= n) {
    // Tournament select: the two semifinal compares are independent, which
    // keeps the (branchless) compares off the critical path.
    const std::size_t b01 = before(h[c + 1], h[c]) ? c + 1 : c;
    const std::size_t b23 = before(h[c + 3], h[c + 2]) ? c + 3 : c + 2;
    return before(h[b23], h[b01]) ? b23 : b01;
  }
  std::size_t best = c;
  for (std::size_t i = c + 1; i < n; ++i) {
    if (before(h[i], h[best])) best = i;
  }
  return best;
}

void EventQueue::sift_down(std::size_t pos, HeapEntry e) {
  HeapEntry* h = heap_.data();
  std::uint32_t* pos_of = pos_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t c = 4 * pos + 1;
    if (c >= n) break;
    const std::size_t best = min_child(h, c, n);
    if (!before(h[best], e)) break;
    h[pos] = h[best];
    pos_of[h[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  h[pos] = e;
  pos_of[e.slot] = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_erase(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const HeapEntry moved = heap_[last];
  heap_.pop_back();
  if (pos == 0) {
    // Bottom-up deletion (Wegener): the replacement comes from the heap
    // bottom, so walk the min-child path all the way to a leaf without
    // comparing against `moved` (it almost always belongs there), then sift
    // it up - usually zero or one step. Saves a compare per level on the
    // hottest path (pop).
    HeapEntry* h = heap_.data();
    std::uint32_t* pos_of = pos_.data();
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t c = 4 * hole + 1;
      if (c >= n) break;
      const std::size_t best = min_child(h, c, n);
      h[hole] = h[best];
      pos_of[h[hole].slot] = static_cast<std::uint32_t>(hole);
      hole = best;
    }
    sift_up(hole, moved);
    return;
  }
  // The moved-in element may need to go either way relative to `pos`.
  if (before(moved, heap_[(pos - 1) / 4])) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  pos_[slot] = kNpos;
  ++s.generation;  // outstanding handles to this slot are now stale
  // Skip generations whose packed bits are zero: a (gen=0, slot=0) handle
  // would collide with kInvalidHandle.
  if ((s.generation & kGenMask) == 0) ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace dpjit::sim
