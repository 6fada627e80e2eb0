// Incremental next-completion index for the fair-sharing transfer manager.
//
// In fluid mode every flow progresses linearly between rate re-solves, so its
// projected absolute completion time is a constant of the current rate
// assignment: finish = t_solve + remaining(t_solve) / rate. The transfer
// manager used to find the next completion with an O(active) scan over every
// fluid flow after every mutation; this index keeps the projections in a
// slab-backed min-heap instead, invalidated per re-solved bottleneck
// component: only the flows whose rate the FairShareSolver actually updated
// get their entries re-keyed, everything else stays put, and the next
// completion is read off the heap root (collect_min_ties).
//
// Ordering is (finish estimate, flow id) lexicographic, so ties on the key
// are deterministic regardless of insertion history.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dpjit::grid {

class CompletionIndex {
 public:
  /// Sentinel slot handle: always an invalid hint for upsert().
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  /// Inserts the flow or re-keys an existing entry to `finish_s`. Returns the
  /// slab slot holding the entry; callers that re-key the same flow after
  /// every rate re-solve can pass it back as `hint` to skip the id hash
  /// lookup. A stale hint (freed slot, or slab slot recycled by another flow)
  /// is detected and falls back to the lookup, so any remembered value is
  /// safe to pass.
  std::uint32_t upsert(std::uint64_t id, double finish_s, std::uint32_t hint = kNoSlot);

  /// Removes the flow's entry; false when absent (safe no-op).
  bool erase(std::uint64_t id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Appends every id whose key lies within a few ulps of the minimum key to
  /// `out`. Projected finishes are absolute times stamped at each flow's last
  /// rate change, so (a) two flows whose completion delays differ by less
  /// than one ulp of the clock collapse onto the same key, and (b) a flow's
  /// stored key can drift from its freshly recomputed delay by the rounding
  /// the eager remaining-volume advance accumulates between re-keys - up to
  /// ~1 clock-ulp per few hundred advance steps. The caller resolves the
  /// true minimum with a fresh relative-precision delay comparison over the
  /// returned band (see TransferManager::fair_schedule_next_completion); the
  /// 64-ulp band makes that exact for any drift the advance can plausibly
  /// accumulate, and a debug assert in the caller guards the rest. In-band
  /// entries form a connected subtree at the heap root, so this is O(band).
  /// No-op when empty.
  void collect_min_ties(std::vector<std::uint64_t>& out) const;

  /// Drops every entry (keeps the slab allocation).
  void clear();

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffU;

  struct Slot {
    std::uint64_t id = 0;
    double key = 0.0;
    std::uint32_t heap_pos = kNpos;
    std::uint32_t next_free = kNpos;
  };

  /// (key, id) lexicographic min-order.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.key != sb.key) return sa.key < sb.key;
    return sa.id < sb.id;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void place(std::size_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  std::vector<Slot> slots_;          ///< slab; freed slots chain via next_free
  std::vector<std::uint32_t> heap_;  ///< binary min-heap of slab indices
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::uint32_t free_head_ = kNpos;
  mutable std::vector<std::size_t> dfs_scratch_;  ///< collect_min_ties stack
};

}  // namespace dpjit::grid
