#include "grid/completion_index.hpp"

#include <cassert>
#include <cmath>

#include "util/types.hpp"

namespace dpjit::grid {

std::uint32_t CompletionIndex::upsert(std::uint64_t id, double finish_s, std::uint32_t hint) {
  // A hint is only trusted when it still names a live entry for this very
  // flow: erase() parks freed slots with heap_pos == kNpos, and a recycled
  // slot carries the new owner's id, so both staleness modes are caught.
  if (hint != kNoSlot && hint < slots_.size() && slots_[hint].heap_pos != kNpos &&
      slots_[hint].id == id) {
    const double old_key = slots_[hint].key;
    slots_[hint].key = finish_s;
    if (finish_s < old_key) {
      sift_up(slots_[hint].heap_pos);
    } else if (finish_s > old_key) {
      sift_down(slots_[hint].heap_pos);
    }
    return hint;
  }
  const auto it = slot_of_.find(id);
  if (it != slot_of_.end()) {
    const std::uint32_t slot = it->second;
    const double old_key = slots_[slot].key;
    slots_[slot].key = finish_s;
    if (finish_s < old_key) {
      sift_up(slots_[slot].heap_pos);
    } else if (finish_s > old_key) {
      sift_down(slots_[slot].heap_pos);
    }
    return slot;
  }
  std::uint32_t slot;
  if (free_head_ != kNpos) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].id = id;
  slots_[slot].key = finish_s;
  slots_[slot].next_free = kNpos;
  slot_of_.emplace(id, slot);
  heap_.push_back(slot);
  slots_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return slot;
}

bool CompletionIndex::erase(std::uint64_t id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  const std::size_t pos = slots_[slot].heap_pos;
  slot_of_.erase(it);

  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (last != slot) {
    place(pos, last);
    // The moved entry may need to travel either way relative to its new
    // neighborhood; only one of the two sifts will actually move it.
    sift_up(pos);
    sift_down(slots_[last].heap_pos);
  }
  slots_[slot].heap_pos = kNpos;
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
  return true;
}

void CompletionIndex::collect_min_ties(std::vector<std::uint64_t>& out) const {
  if (heap_.empty()) return;
  const double kmin = slots_[heap_.front()].key;
  // 64 ulps of headroom above the minimum: keys are stamped at different
  // instants, so a stale key can sit a few ulps on the wrong side of a
  // fresher one. Widening the band only ever moves the caller's recomputed
  // minimum closer to the brute-force scan (the band is a superset of the
  // exact-tie set and a subset of all flows).
  double bound = kmin;
  for (int i = 0; i < 64; ++i) bound = std::nextafter(bound, kInf);
  // DFS over the in-band subtree: a node's key can only be in band if its
  // parent's is (min-heap invariant), so the walk prunes hard. The scratch
  // stack is a member so the common single-entry case never allocates.
  dfs_scratch_.clear();
  dfs_scratch_.push_back(0);
  while (!dfs_scratch_.empty()) {
    const std::size_t pos = dfs_scratch_.back();
    dfs_scratch_.pop_back();
    const Slot& s = slots_[heap_[pos]];
    if (s.key > bound) continue;
    out.push_back(s.id);
    const std::size_t left = 2 * pos + 1;
    if (left < heap_.size()) dfs_scratch_.push_back(left);
    if (left + 1 < heap_.size()) dfs_scratch_.push_back(left + 1);
  }
}

void CompletionIndex::clear() {
  for (const std::uint32_t slot : heap_) {
    slots_[slot].heap_pos = kNpos;
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
  }
  heap_.clear();
  slot_of_.clear();
}

void CompletionIndex::sift_up(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

void CompletionIndex::sift_down(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, moving);
}

}  // namespace dpjit::grid
