#include "gossip/view.hpp"

#include <algorithm>
#include <cassert>

namespace dpjit::gossip {

// NOTE: every mutation below must leave entries_ in exactly the layout the
// original index-free implementation produced (same slots, same order): the
// neighbor-selection shuffle consumes RNG draws over the entries in order,
// so layout changes would silently change simulation results.

bool ResourceView::merge(const ResourceEntry& entry) {
  // Below the floor, a resident about the same node is no fresher than the
  // stalest one (no-op), and an absent node would not evict it. Equal stamps
  // go on: they may raise a resident's TTL.
  if (entry.stamped_at < stamp_floor()) return false;
  const std::uint16_t slot = lookup(entry.node);
  if (slot != kNoSlot) {
    ResourceEntry& e = entries_[slot];
    if (entry.stamped_at > e.stamped_at) {
      // A raised stamp elsewhere leaves the first minimum where it was.
      if (slot == stalest_) stalest_ = kNoSlot;
      e = entry;
      return true;
    }
    // Same snapshot seen again: keep the higher remaining TTL so forwarding
    // budget is not lost to duplicate delivery order.
    if (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl) e.ttl = entry.ttl;
    return false;
  }
  if (entries_.size() < capacity_) {
    index(entry.node, entries_.size());
    entries_.push_back(entry);
    stalest_ = kNoSlot;
    return true;
  }
  // Full: evict the stalest entry if the newcomer is fresher.
  const std::uint16_t stalest = stalest_slot();
  ResourceEntry& victim = entries_[stalest];
  if (victim.stamped_at < entry.stamped_at) {
    unindex(victim.node);
    index(entry.node, stalest);
    victim = entry;
    stalest_ = kNoSlot;
    return true;
  }
  return false;
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
