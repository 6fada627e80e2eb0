#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "gossip/view.hpp"
#include "util/rng.hpp"

namespace dpjit::gossip {
namespace {

ResourceEntry entry(int node, double load, SimTime at, int ttl = 4) {
  return ResourceEntry{NodeId{node}, load, 2.0, at, ttl};
}

TEST(ResourceView, MergeInsertsNewEntries) {
  ResourceView v(4);
  EXPECT_TRUE(v.merge(entry(1, 10, 1.0)));
  EXPECT_TRUE(v.merge(entry(2, 20, 1.0)));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.contains(NodeId{1}));
}

TEST(ResourceView, FresherEntryReplacesStale) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0));
  EXPECT_TRUE(v.merge(entry(1, 99, 2.0)));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 99.0);
}

TEST(ResourceView, StaleEntryIgnored) {
  ResourceView v(4);
  v.merge(entry(1, 10, 5.0));
  EXPECT_FALSE(v.merge(entry(1, 99, 2.0)));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 10.0);
}

TEST(ResourceView, EqualTimestampKeepsHigherTtl) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0, 1));
  EXPECT_FALSE(v.merge(entry(1, 10, 1.0, 3)));
  EXPECT_EQ(v.entries()[0].ttl, 3);
}

TEST(ResourceView, CapacityEvictsStalest) {
  ResourceView v(2);
  v.merge(entry(1, 0, 1.0));
  v.merge(entry(2, 0, 5.0));
  EXPECT_TRUE(v.merge(entry(3, 0, 3.0)));  // evicts node 1 (stamped 1.0)
  EXPECT_EQ(v.size(), 2u);
  EXPECT_FALSE(v.contains(NodeId{1}));
  EXPECT_TRUE(v.contains(NodeId{3}));
}

TEST(ResourceView, FullViewRejectsStalerThanAll) {
  ResourceView v(2);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 6.0));
  EXPECT_FALSE(v.merge(entry(3, 0, 1.0)));
  EXPECT_FALSE(v.contains(NodeId{3}));
}

TEST(ResourceView, EqualTimestampLowerTtlIgnored) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0, 3));
  EXPECT_FALSE(v.merge(entry(1, 99, 1.0, 1)));
  EXPECT_EQ(v.entries()[0].ttl, 3);
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 10.0);  // payload not overwritten
}

TEST(ResourceView, FullViewEqualStampNewcomerRejected) {
  // Eviction requires the newcomer to be STRICTLY fresher than the stalest
  // resident; ties keep the resident (stable under duplicate delivery).
  ResourceView v(2);
  v.merge(entry(1, 0, 3.0));
  v.merge(entry(2, 0, 5.0));
  EXPECT_FALSE(v.merge(entry(3, 0, 3.0)));
  EXPECT_TRUE(v.contains(NodeId{1}));
  EXPECT_FALSE(v.contains(NodeId{3}));
}

TEST(ResourceView, EvictionReplacesStalestInPlace) {
  // Entry order is observable (neighbor selection shuffles entries in order),
  // so eviction must overwrite the stalest slot, not erase + append.
  ResourceView v(3);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 1.0));  // stalest, slot 1
  v.merge(entry(3, 0, 7.0));
  EXPECT_TRUE(v.merge(entry(4, 0, 2.0)));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.entries()[0].node, NodeId{1});
  EXPECT_EQ(v.entries()[1].node, NodeId{4});  // took node 2's slot
  EXPECT_EQ(v.entries()[2].node, NodeId{3});
}

TEST(ResourceView, FindIsSlotConsistentAcrossMutations) {
  ResourceView v(3);
  for (int n = 1; n <= 3; ++n) v.merge(entry(n, 10.0 * n, n));
  v.forget(NodeId{2});       // compacts: node 3 shifts into slot 1
  v.merge(entry(4, 40, 9.0));
  ASSERT_NE(v.find(NodeId{3}), nullptr);
  EXPECT_DOUBLE_EQ(v.find(NodeId{3})->load_mi, 30.0);
  EXPECT_EQ(v.find(NodeId{2}), nullptr);
  ASSERT_NE(v.find(NodeId{4}), nullptr);
  EXPECT_DOUBLE_EQ(v.find(NodeId{4})->load_mi, 40.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.find(v.entries()[i].node), &v.entries()[i]);
  }
}

/// Naive index-free reference implementing the documented merge semantics.
/// The production class promises to preserve this exact entry layout.
class NaiveView {
 public:
  explicit NaiveView(std::size_t capacity) : capacity_(capacity) {}

  bool merge(const ResourceEntry& entry) {
    for (auto& e : entries_) {
      if (e.node != entry.node) continue;
      if (entry.stamped_at > e.stamped_at) {
        e = entry;
        return true;
      }
      if (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl) e.ttl = entry.ttl;
      return false;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(entry);
      return true;
    }
    auto stalest = std::min_element(entries_.begin(), entries_.end(),
                                    [](const ResourceEntry& a, const ResourceEntry& b) {
                                      return a.stamped_at < b.stamped_at;
                                    });
    if (stalest->stamped_at < entry.stamped_at) {
      *stalest = entry;
      return true;
    }
    return false;
  }

  bool forget(NodeId node) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->node == node) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  void expire(SimTime now, double max_age, NodeId self) {
    std::erase_if(entries_, [&](const ResourceEntry& e) {
      return e.node == self || (now - e.stamped_at) > max_age;
    });
  }

  bool adjust_load(NodeId node, double delta_mi) {
    for (auto& e : entries_) {
      if (e.node != node) continue;
      e.load_mi = std::max(0.0, e.load_mi + delta_mi);
      return true;
    }
    return false;
  }

  void clear() { entries_.clear(); }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  [[nodiscard]] const ResourceEntry* find(NodeId node) const {
    for (const auto& e : entries_) {
      if (e.node == node) return &e;
    }
    return nullptr;
  }

  [[nodiscard]] const std::vector<ResourceEntry>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::vector<ResourceEntry> entries_;
};

void expect_same_layout(const ResourceView& fast, const NaiveView& slow) {
  ASSERT_EQ(fast.size(), slow.entries().size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const auto& a = fast.entries()[i];
    const auto& b = slow.entries()[i];
    ASSERT_EQ(a.node, b.node) << "slot " << i << " diverged";
    ASSERT_EQ(a.stamped_at, b.stamped_at);
    ASSERT_EQ(a.ttl, b.ttl);
    ASSERT_EQ(a.load_mi, b.load_mi);
    ASSERT_EQ(fast.find(a.node), &fast.entries()[i]);
  }
}

/// The stalest resident stamp once the naive view is full: what the stamp
/// floor must report.
SimTime naive_floor(const NaiveView& v, std::size_t capacity) {
  if (v.entries().empty() || v.entries().size() < capacity) {
    return -std::numeric_limits<SimTime>::infinity();
  }
  SimTime floor = v.entries().front().stamped_at;
  for (const auto& e : v.entries()) floor = std::min(floor, e.stamped_at);
  return floor;
}

/// Slot of the naive view's first minimum stamp (what min_element returns).
std::size_t naive_stalest_slot(const NaiveView& v) {
  const auto& e = v.entries();
  return static_cast<std::size_t>(
      std::min_element(e.begin(), e.end(),
                       [](const ResourceEntry& a, const ResourceEntry& b) {
                         return a.stamped_at < b.stamped_at;
                       }) -
      e.begin());
}

TEST(ResourceView, RandomizedDifferentialAgainstNaiveReference) {
  util::Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    std::size_t cap = 1 + rng.index(12);
    ResourceView fast(cap);
    NaiveView slow(cap);
    double now = 0.0;
    for (int op = 0; op < 400; ++op) {
      now += rng.uniform(0.0, 2.0);
      const int node = 1 + static_cast<int>(rng.index(20));
      const double roll = rng.uniform01();
      if (roll < 0.55) {
        // Stamps drawn near `now`, quantized so equal-stamp ties actually occur.
        const double stamp = std::floor(rng.uniform(0.0, now + 1.0));
        const auto e = ResourceEntry{NodeId{node}, rng.uniform(0.0, 50.0), 2.0, stamp,
                                     static_cast<int>(rng.index(5))};
        EXPECT_EQ(fast.merge(e), slow.merge(e));
      } else if (roll < 0.70) {
        // Equal-stamp tie with the stalest resident of a (typically full)
        // view: must not be rejected by the floor, since it may raise a TTL.
        if (!slow.entries().empty()) {
          SimTime stalest = slow.entries().front().stamped_at;
          for (const auto& r : slow.entries()) stalest = std::min(stalest, r.stamped_at);
          const NodeId who = rng.bernoulli(0.5)
                                 ? slow.entries()[rng.index(slow.entries().size())].node
                                 : NodeId{node};
          const auto e = ResourceEntry{who, 1.0, 2.0, stalest, static_cast<int>(rng.index(5))};
          EXPECT_EQ(fast.merge(e), slow.merge(e));
        }
      } else if (roll < 0.78) {
        EXPECT_EQ(fast.forget(NodeId{node}), slow.forget(NodeId{node}));
      } else if (roll < 0.86) {
        fast.expire(now, 5.0, NodeId{node});
        slow.expire(now, 5.0, NodeId{node});
      } else if (roll < 0.93) {
        const double delta = rng.uniform(-30.0, 30.0);
        EXPECT_EQ(fast.adjust_load(NodeId{node}, delta), slow.adjust_load(NodeId{node}, delta));
      } else if (roll < 0.98) {
        // Often shrinks below size(): the view then stays over-full.
        cap = 1 + rng.index(12);
        fast.set_capacity(cap);
        slow.set_capacity(cap);
      } else {
        fast.clear();
        slow.clear();
      }
      expect_same_layout(fast, slow);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(fast.stamp_floor(), naive_floor(slow, cap));
    }
  }
}

TEST(ResourceView, FloorRejectsStalerThanStalestOnlyWhenFull) {
  ResourceView v(3);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 4.0));
  EXPECT_EQ(v.stamp_floor(), -std::numeric_limits<SimTime>::infinity());
  EXPECT_TRUE(v.merge(entry(3, 0, 1.0)));  // not full yet: inserted
  EXPECT_EQ(v.stamp_floor(), 1.0);
  EXPECT_FALSE(v.merge(entry(4, 0, 0.5)));
  EXPECT_TRUE(v.merge(entry(3, 0, 6.0)));  // refreshing the stalest moves the floor
  EXPECT_EQ(v.stamp_floor(), 4.0);
  v.adjust_load(NodeId{2}, 7.0);  // no stamp changes
  EXPECT_EQ(v.stamp_floor(), 4.0);
  v.set_capacity(2);  // shrunk below size(): still full, nothing dropped
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.stamp_floor(), 4.0);
  v.forget(NodeId{2});
  EXPECT_EQ(v.stamp_floor(), 5.0);
  v.clear();
  EXPECT_EQ(v.stamp_floor(), -std::numeric_limits<SimTime>::infinity());
}

TEST(ResourceView, FloorFollowsCompactionOfAFullView) {
  // Removals shift the survivors' slots; the cached stalest slot must follow
  // even when the view stays full (its capacity shrank below its size).
  ResourceView v(3);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 1.0));  // stalest, slot 1
  v.merge(entry(3, 0, 7.0));
  v.merge(entry(4, 0, 0.5));  // full: rejected by the floor
  EXPECT_EQ(v.stamp_floor(), 1.0);
  v.set_capacity(2);
  v.expire(/*now=*/8.0, /*max_age=*/100.0, /*self=*/NodeId{1});  // node 2 -> slot 0
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.stamp_floor(), 1.0);
  EXPECT_TRUE(v.merge(entry(5, 0, 3.0)));  // evicts node 2 from slot 0
  EXPECT_EQ(v.entries()[0].node, NodeId{5});
  EXPECT_EQ(v.stamp_floor(), 3.0);
  v.merge(entry(6, 0, 9.0));  // evicts node 5: [6 (9.0), 3 (7.0)]
  v.set_capacity(1);
  v.forget(NodeId{6});  // node 3 -> slot 0
  EXPECT_EQ(v.stamp_floor(), 7.0);
  EXPECT_FALSE(v.merge(entry(7, 0, 6.0)));
  EXPECT_TRUE(v.merge(entry(7, 0, 8.0)));
  EXPECT_EQ(v.entries()[0].node, NodeId{7});
}

TEST(ResourceView, BatchedMessageMergeMatchesEntryByEntry) {
  util::Rng rng(977);
  std::uint64_t skipped_total = 0;
  for (int round = 0; round < 40; ++round) {
    const std::size_t cap = 1 + rng.index(10);
    ResourceView batched(cap);
    ResourceView single(cap);
    double now = 0.0;
    for (int msg = 0; msg < 60; ++msg) {
      now += rng.uniform(0.0, 3.0);
      std::vector<ResourceEntry> message(rng.index(12));
      for (auto& e : message) {
        e = ResourceEntry{NodeId{1 + static_cast<int>(rng.index(24))}, rng.uniform(0.0, 50.0),
                          2.0, std::floor(rng.uniform(0.0, now + 1.0)),
                          static_cast<int>(rng.index(5))};
      }
      // Pure filters standing in for the self check and alive(): the screen
      // counts its calls, since it must see every entry.
      const auto screen_pred = [](const ResourceEntry& e) { return e.node.get() != 7; };
      const auto accept_pred = [](const ResourceEntry& e) { return e.node.get() % 5 != 0; };
      std::size_t screened = 0;
      const std::size_t skipped = batched.merge_message(
          message,
          [&](const ResourceEntry& e) {
            ++screened;
            return screen_pred(e);
          },
          accept_pred);
      EXPECT_EQ(screened, message.size());
      // The floor skips exactly the screened entries below the floor of the
      // view as it stands when they arrive.
      std::size_t below_floor = 0;
      for (const auto& e : message) {
        if (!screen_pred(e)) continue;
        if (e.stamped_at < single.stamp_floor()) ++below_floor;
        if (accept_pred(e)) single.merge(e);
      }
      EXPECT_EQ(skipped, below_floor);
      skipped_total += skipped;
      ASSERT_EQ(batched.size(), single.size());
      for (std::size_t i = 0; i < batched.size(); ++i) {
        const auto& a = batched.entries()[i];
        const auto& b = single.entries()[i];
        ASSERT_EQ(a.node, b.node) << "slot " << i << " diverged";
        ASSERT_EQ(a.stamped_at, b.stamped_at);
        ASSERT_EQ(a.ttl, b.ttl);
        ASSERT_EQ(a.load_mi, b.load_mi);
      }
      if (rng.bernoulli(0.1)) {
        batched.expire(now, 6.0, NodeId{0});
        single.expire(now, 6.0, NodeId{0});
      }
    }
  }
  EXPECT_GT(skipped_total, 0u);  // the floor fast path actually ran
}

TEST(ResourceView, TieHeavyMessagesMatchTheNaiveReference) {
  // Stamps are multiples of the 300 s gossip cycle, so a full view's floor is
  // tied by many entries of every message. At-floor newcomers are skipped
  // without being counted, at-floor residents still take the TTL bump, and
  // the cached stalest slot follows evictions and refreshes of the first
  // minimum, both to a later tied slot and, when none is left, by a rescan.
  constexpr double kCycle = 300.0;
  constexpr int kPeers = 40;
  util::Rng rng(29);
  std::size_t at_floor_newcomers = 0;
  std::size_t at_floor_ttl_bumps = 0;
  std::size_t stalest_to_later_tie = 0;
  std::size_t stalest_after_rise = 0;
  for (int round = 0; round < 30; ++round) {
    const std::size_t cap = 4 + rng.index(20);
    ResourceView fast(cap);
    NaiveView slow(cap);
    for (int msg = 0; msg < 80; ++msg) {
      // At most 8 distinct stamps per message; the newest advances one cycle
      // every 4 messages, so the floor keeps rising.
      const int newest = msg / 4;
      std::vector<ResourceEntry> message(20 + rng.index(9));
      for (auto& e : message) {
        const int cycle = std::max(0, newest - static_cast<int>(rng.index(8)));
        e = ResourceEntry{NodeId{1 + static_cast<int>(rng.index(kPeers))}, rng.uniform(0.0, 50.0),
                          2.0, kCycle * cycle, static_cast<int>(rng.index(5))};
      }
      const auto accept = [](const ResourceEntry& e) { return e.node.get() % 9 != 0; };
      const std::size_t skipped =
          fast.merge_message(message, [](const ResourceEntry&) { return true; }, accept);

      std::size_t below_floor = 0;
      for (const auto& e : message) {
        const SimTime floor = naive_floor(slow, cap);
        if (e.stamped_at < floor) {
          ++below_floor;
          continue;
        }
        if (!accept(e)) continue;
        const ResourceEntry* resident = slow.find(e.node);
        if (e.stamped_at == floor) {
          if (resident == nullptr) ++at_floor_newcomers;
          if (resident != nullptr && e.ttl > resident->ttl) ++at_floor_ttl_bumps;
        }
        const bool full = slow.entries().size() >= cap;
        const std::size_t before = full ? naive_stalest_slot(slow) : 0;
        const SimTime before_stamp = full ? slow.entries()[before].stamped_at : 0.0;
        if (slow.merge(e) && full) {
          const std::size_t after = naive_stalest_slot(slow);
          const SimTime after_stamp = slow.entries()[after].stamped_at;
          if (after_stamp == before_stamp && after > before) ++stalest_to_later_tie;
          if (after_stamp > before_stamp) ++stalest_after_rise;
        }
      }
      EXPECT_EQ(skipped, below_floor);
      expect_same_layout(fast, slow);
      if (::testing::Test::HasFatalFailure()) return;
      for (int n = 1; n <= kPeers; ++n) {
        ASSERT_EQ(fast.find(NodeId{n}) != nullptr, slow.find(NodeId{n}) != nullptr) << "node " << n;
      }
      ASSERT_EQ(fast.stamp_floor(), naive_floor(slow, cap));
      if (rng.bernoulli(0.05)) {
        fast.expire(kCycle * newest, 3 * kCycle, NodeId{0});
        slow.expire(kCycle * newest, 3 * kCycle, NodeId{0});
      }
    }
  }
  // Every path the test is about actually ran.
  EXPECT_GT(at_floor_newcomers, 0u);
  EXPECT_GT(at_floor_ttl_bumps, 0u);
  EXPECT_GT(stalest_to_later_tie, 0u);
  EXPECT_GT(stalest_after_rise, 0u);
}

TEST(ResourceView, CapacityBeyondTheSlotIndexThrows) {
  // Slots are 16-bit and 0xffff means "no slot".
  EXPECT_THROW(ResourceView(65535), std::invalid_argument);
  ResourceView v(4);
  EXPECT_THROW(v.set_capacity(65535), std::invalid_argument);
  EXPECT_EQ(v.capacity(), 4u);
  v.set_capacity(ResourceView::kMaxCapacity);
  EXPECT_EQ(v.capacity(), 65534u);
}

TEST(ResourceView, ExpireDropsOldAndSelf) {
  ResourceView v(8);
  v.merge(entry(1, 0, 1.0));
  v.merge(entry(2, 0, 9.0));
  v.merge(entry(3, 0, 9.5));
  v.expire(/*now=*/10.0, /*max_age=*/2.0, /*self=*/NodeId{3});
  EXPECT_FALSE(v.contains(NodeId{1}));  // age 9 > 2
  EXPECT_TRUE(v.contains(NodeId{2}));
  EXPECT_FALSE(v.contains(NodeId{3}));  // self
}

TEST(ResourceView, ForgetRemovesEntry) {
  ResourceView v(4);
  v.merge(entry(1, 0, 1.0));
  EXPECT_TRUE(v.forget(NodeId{1}));
  EXPECT_FALSE(v.forget(NodeId{1}));
  EXPECT_EQ(v.size(), 0u);
}

TEST(ResourceView, AdjustLoadClampsAtZero) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0));
  EXPECT_TRUE(v.adjust_load(NodeId{1}, 5.0));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 15.0);
  EXPECT_TRUE(v.adjust_load(NodeId{1}, -100.0));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 0.0);
  EXPECT_FALSE(v.adjust_load(NodeId{9}, 1.0));
}

}  // namespace
}  // namespace dpjit::gossip
