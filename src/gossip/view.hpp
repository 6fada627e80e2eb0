// Per-node gossip state: the bounded resource-state cache RSS(p_i) that the
// epidemic protocol maintains (paper Section III.B), and the running
// aggregation estimates.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dpjit::gossip {

/// One entry of RSS(p_i): the freshest state this node knows about a peer.
/// `ttl` sits beside `node` so an entry packs into 32 bytes; the constructor
/// keeps the {node, load, capacity, stamp, ttl} argument order.
struct ResourceEntry {
  constexpr ResourceEntry() = default;
  constexpr ResourceEntry(NodeId peer, double load, double capacity, SimTime at, int hops)
      : node(peer), ttl(hops), load_mi(load), capacity_mips(capacity), stamped_at(at) {}

  NodeId node;
  /// Remaining epidemic forwarding hops (paper: TTL = 4).
  int ttl = 0;
  /// Total load (MI) queued + running at `node` when the state was sampled.
  double load_mi = 0.0;
  /// Node capacity in MIPS.
  double capacity_mips = 1.0;
  /// Simulated time at which `node` sampled this state (finite).
  SimTime stamped_at = 0.0;
};
static_assert(sizeof(ResourceEntry) == 32);

/// Bounded freshest-first cache of ResourceEntry, one per known peer.
///
/// Entry *order* is part of the observable behavior (neighbor selection
/// shuffles the entries in order, consuming RNG draws), so all mutations keep
/// the same vector layout the naive implementation produced. Two side
/// structures make a merge cheap without touching that layout: a
/// direct-mapped node -> slot index (O(1) lookup) and a cached stalest slot,
/// kept up to date across the mutations a merge makes. The stalest stamp is
/// the view's *stamp floor*: once the view is full, an entry stamped strictly
/// below it cannot change the view, so it is rejected before any lookup. Most
/// entries a receiver gets are about peers it does not hold, and without the
/// cache each of those paid a full-view min scan.
class ResourceView {
 public:
  /// Largest capacity: slots are 16-bit and 0xffff marks "no slot".
  static constexpr std::size_t kMaxCapacity = 0xfffe;

  explicit ResourceView(std::size_t capacity = 30) { set_capacity(capacity); }

  /// Shrinking below size() keeps every entry; the view just stays full.
  /// Throws std::invalid_argument above kMaxCapacity.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Merges an incoming entry: replaces an older entry about the same node,
  /// inserts otherwise. When full, the stalest entry is evicted if the
  /// incoming one is fresher. Returns true if the view changed.
  bool merge(const ResourceEntry& entry);

  /// Merges the entries of one delivered message in order. Equivalent to
  ///   for (e : entries) if (screen(e) && accept(e)) merge(e);
  /// except that entries merge() would ignore skip `accept` and merge():
  /// those stamped below the stamp floor, and those stamped exactly at it
  /// about a peer the view does not hold (they would evict the first stalest
  /// slot only if it were strictly staler). `accept` must therefore be a pure
  /// read; `screen` runs for every entry and may have side effects. Returns
  /// the number of entries skipped below the floor; at-floor skips are not
  /// counted. Residents at the floor still merge: an equal stamp may raise
  /// their TTL.
  template <typename Screen, typename Accept>
  std::size_t merge_message(std::span<const ResourceEntry> entries, Screen&& screen,
                            Accept&& accept) {
    std::size_t skipped = 0;
    SimTime floor = stamp_floor();
    for (const ResourceEntry& e : entries) {
      if (!screen(e)) continue;
      if (e.stamped_at < floor) {
        ++skipped;
        continue;
      }
      const std::uint16_t slot = lookup(e.node);
      if (slot == kNoSlot && e.stamped_at == floor) continue;
      // Only a merge that changed the view can move the floor.
      if (accept(e) && merge_at(e, slot)) floor = stamp_floor();
    }
    return skipped;
  }

  /// Entries stamped strictly below this are no-ops for merge(): the stalest
  /// resident's stamp once the view is full, -infinity before. May fill the
  /// stalest-slot cache, so a view is not safe for concurrent readers.
  [[nodiscard]] SimTime stamp_floor() const {
    if (entries_.empty() || entries_.size() < capacity_) {
      return -std::numeric_limits<SimTime>::infinity();
    }
    return entries_[stalest_slot()].stamped_at;
  }

  /// Drops entries older than `now - max_age` and entries about `self`.
  void expire(SimTime now, double max_age, NodeId self);

  /// Removes the entry about a node (e.g. observed dead). Returns true if found.
  bool forget(NodeId node);

  /// Updates the load recorded for `node` (local correction after dispatching
  /// work to it - Algorithm 1 line 15). Returns false if unknown.
  bool adjust_load(NodeId node, double delta_mi);

  [[nodiscard]] const std::vector<ResourceEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool contains(NodeId node) const;

  /// The entry about `node`, or nullptr when absent. O(1).
  [[nodiscard]] const ResourceEntry* find(NodeId node) const {
    const std::uint16_t slot = lookup(node);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }
  void clear() {
    entries_.clear();
    std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
    stalest_ = kNoSlot;
  }

 private:
  static constexpr std::uint16_t kNoSlot = 0xffff;

  /// merge() past the floor check, with `entry.node`'s slot already looked up.
  bool merge_at(const ResourceEntry& entry, std::uint16_t slot);
  /// The cached stalest slot, which held stamp `old`, was just given a fresher
  /// stamp: moves the cache to the next first minimum.
  void advance_stalest(SimTime old);

  /// Slot of `node` in entries_, or kNoSlot. Grows the index on demand.
  [[nodiscard]] std::uint16_t lookup(NodeId node) const {
    const auto i = static_cast<std::size_t>(node.get());
    return i < slot_of_.size() ? slot_of_[i] : kNoSlot;
  }
  void index(NodeId node, std::size_t slot) {
    assert(node.valid() && slot < kNoSlot);
    const auto i = static_cast<std::size_t>(node.get());
    if (i >= slot_of_.size()) slot_of_.resize(i + 1, kNoSlot);
    slot_of_[i] = static_cast<std::uint16_t>(slot);
  }
  void unindex(NodeId node) {
    const auto i = static_cast<std::size_t>(node.get());
    if (i < slot_of_.size()) slot_of_[i] = kNoSlot;
  }
  /// The slot min_element would pick (first minimum stamp). Requires a
  /// non-empty view; rescanned only after an invalidation.
  [[nodiscard]] std::uint16_t stalest_slot() const {
    assert(!entries_.empty());
    if (stalest_ == kNoSlot) {
      const auto it = std::min_element(
          entries_.begin(), entries_.end(),
          [](const ResourceEntry& a, const ResourceEntry& b) { return a.stamped_at < b.stamped_at; });
      stalest_ = static_cast<std::uint16_t>(it - entries_.begin());
    }
    return stalest_;
  }

  std::size_t capacity_ = 0;
  std::vector<ResourceEntry> entries_;
  /// node id -> slot in entries_ (kNoSlot when absent); lazily grown.
  std::vector<std::uint16_t> slot_of_;
  /// Cached stalest_slot(), kNoSlot when it must be rescanned. Merges keep it
  /// up to date; expire, forget and clear reset it. adjust_load and the
  /// equal-stamp TTL bump touch no stamp.
  mutable std::uint16_t stalest_ = kNoSlot;
};

/// Push-pull averaging state for one metric (Jelasity et al., TOCS 2005).
/// The estimate actually *used* is the one published by the last completed
/// epoch; the current epoch's value keeps converging in the background and is
/// re-seeded from the local observation at every epoch boundary so that the
/// aggregate tracks churn.
struct AggregationState {
  double current = 0.0;    ///< value being averaged this epoch
  double published = 0.0;  ///< converged value from the previous epoch
};

}  // namespace dpjit::gossip
