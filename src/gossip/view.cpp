#include "gossip/view.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dpjit::gossip {

// NOTE: every mutation below must leave entries_ in exactly the layout the
// original index-free implementation produced (same slots, same order): the
// neighbor-selection shuffle consumes RNG draws over the entries in order,
// so layout changes would silently change simulation results.

void ResourceView::set_capacity(std::size_t capacity) {
  if (capacity > kMaxCapacity) {
    throw std::invalid_argument("ResourceView: capacity must be at most 65534");
  }
  capacity_ = capacity;
}

bool ResourceView::merge(const ResourceEntry& entry) {
  // Below the floor, a resident about the same node is no fresher than the
  // stalest one (no-op), and an absent node would not evict it. Equal stamps
  // go on: they may raise a resident's TTL.
  if (entry.stamped_at < stamp_floor()) return false;
  return merge_at(entry, lookup(entry.node));
}

bool ResourceView::merge_at(const ResourceEntry& entry, std::uint16_t slot) {
  if (slot != kNoSlot) {
    ResourceEntry& e = entries_[slot];
    if (entry.stamped_at > e.stamped_at) {
      const SimTime old = e.stamped_at;
      e = entry;
      // A raised stamp elsewhere leaves the first minimum where it was.
      if (slot == stalest_) advance_stalest(old);
      return true;
    }
    // Same snapshot seen again: keep the higher remaining TTL so forwarding
    // budget is not lost to duplicate delivery order.
    if (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl) e.ttl = entry.ttl;
    return false;
  }
  if (entries_.size() < capacity_) {
    // An appended slot comes last, so it is the first minimum only when
    // strictly staler than the current one.
    if (stalest_ != kNoSlot && entry.stamped_at < entries_[stalest_].stamped_at) {
      stalest_ = static_cast<std::uint16_t>(entries_.size());
    }
    index(entry.node, entries_.size());
    entries_.push_back(entry);
    return true;
  }
  // Full: evict the stalest entry if the newcomer is fresher.
  const std::uint16_t stalest = stalest_slot();
  ResourceEntry& victim = entries_[stalest];
  if (victim.stamped_at < entry.stamped_at) {
    const SimTime old = victim.stamped_at;
    unindex(victim.node);
    index(entry.node, stalest);
    victim = entry;
    advance_stalest(old);
    return true;
  }
  return false;
}

void ResourceView::advance_stalest(SimTime old) {
  // Every slot before the old first minimum is strictly fresher than `old`,
  // and so is that slot now: the next later slot still stamped `old` is the
  // new first minimum. Without one the minimum rose, and only a full scan
  // can find it.
  for (std::size_t i = stalest_ + 1u; i < entries_.size(); ++i) {
    if (entries_[i].stamped_at == old) {
      stalest_ = static_cast<std::uint16_t>(i);
      return;
    }
  }
  stalest_ = kNoSlot;
}

void ResourceView::expire(SimTime now, double max_age, NodeId self) {
  const auto before = entries_.size();
  std::erase_if(entries_, [&](const ResourceEntry& e) {
    const bool drop = e.node == self || (now - e.stamped_at) > max_age;
    if (drop) unindex(e.node);
    return drop;
  });
  // erase_if compacted the survivors; refresh their slots.
  if (entries_.size() != before) {
    for (std::size_t i = 0; i < entries_.size(); ++i) index(entries_[i].node, i);
    stalest_ = kNoSlot;
  }
}

bool ResourceView::forget(NodeId node) {
  const std::uint16_t slot = lookup(node);
  if (slot == kNoSlot) return false;
  unindex(node);
  entries_.erase(entries_.begin() + slot);
  for (std::size_t i = slot; i < entries_.size(); ++i) index(entries_[i].node, i);
  stalest_ = kNoSlot;
  return true;
}

bool ResourceView::adjust_load(NodeId node, double delta_mi) {
  const std::uint16_t slot = lookup(node);
  if (slot == kNoSlot) return false;
  ResourceEntry& e = entries_[slot];
  e.load_mi = std::max(0.0, e.load_mi + delta_mi);
  return true;
}

bool ResourceView::contains(NodeId node) const { return lookup(node) != kNoSlot; }

}  // namespace dpjit::gossip
