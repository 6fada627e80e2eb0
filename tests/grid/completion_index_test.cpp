// CompletionIndex: the slab-indexed min-heap behind fair-mode next-completion
// arming. Differential-tested against a brute-force scan over randomized
// upsert/erase histories - the same agreement the TransferManager debug
// assert checks in vivo on every arming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "grid/completion_index.hpp"

namespace dpjit::grid {
namespace {

/// The ids within a few ulps of the minimum key, in id order.
std::vector<std::uint64_t> min_ties(const CompletionIndex& idx) {
  std::vector<std::uint64_t> ties;
  idx.collect_min_ties(ties);
  std::sort(ties.begin(), ties.end());
  return ties;
}

using Ids = std::vector<std::uint64_t>;

TEST(CompletionIndex, BasicSemantics) {
  CompletionIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_FALSE(idx.erase(42));

  idx.upsert(7, 30.0);
  idx.upsert(3, 10.0);
  idx.upsert(9, 20.0);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(min_ties(idx), Ids{3});

  idx.upsert(3, 50.0);  // re-key downward in priority
  EXPECT_EQ(min_ties(idx), Ids{9});
  idx.upsert(7, 5.0);  // re-key upward
  EXPECT_EQ(min_ties(idx), Ids{7});

  EXPECT_TRUE(idx.erase(7));
  EXPECT_EQ(min_ties(idx), Ids{9});
  EXPECT_FALSE(idx.erase(7));  // already gone
  EXPECT_EQ(idx.size(), 2u);

  idx.clear();
  EXPECT_TRUE(idx.empty());
  idx.upsert(1, 1.0);  // slab reuse after clear
  EXPECT_EQ(min_ties(idx), Ids{1});
}

TEST(CompletionIndex, TiesBreakTowardSmallerId) {
  CompletionIndex idx;
  idx.upsert(9, 10.0);
  idx.upsert(2, 10.0);
  idx.upsert(5, 10.0);
  idx.upsert(4, 11.0);
  // The whole tie comes back; the caller breaks it.
  EXPECT_EQ(min_ties(idx), (Ids{2, 5, 9}));
  EXPECT_TRUE(idx.erase(2));
  EXPECT_EQ(min_ties(idx), (Ids{5, 9}));
}

TEST(CompletionIndex, CollectMinTiesFindsExactlyTheTiedSet) {
  CompletionIndex idx;
  std::vector<std::uint64_t> ties;
  idx.collect_min_ties(ties);  // empty index: no-op
  EXPECT_TRUE(ties.empty());

  idx.upsert(4, 7.0);
  idx.upsert(9, 7.0);
  idx.upsert(2, 7.0);
  idx.upsert(5, 8.0);
  idx.upsert(1, 9.0);
  idx.collect_min_ties(ties);
  std::sort(ties.begin(), ties.end());
  EXPECT_EQ(ties, (std::vector<std::uint64_t>{2, 4, 9}));

  ties.clear();
  idx.upsert(9, 6.5);  // now a unique minimum
  idx.collect_min_ties(ties);
  EXPECT_EQ(ties, (std::vector<std::uint64_t>{9}));
}

TEST(CompletionIndex, CollectMinTiesIncludesUlpNeighbors) {
  // Keys stamped at different instants can drift a few ulps apart while the
  // true minimum belongs to the nominally-larger key; the collection band
  // must cover such neighbors so the caller's fresh comparison can win.
  CompletionIndex idx;
  const double base = 131074.0;
  idx.upsert(1, std::nextafter(base, 1e18));  // 1 ulp above
  idx.upsert(2, base);
  idx.upsert(3, base + 1.0);  // far outside the band
  std::vector<std::uint64_t> ties;
  idx.collect_min_ties(ties);
  std::sort(ties.begin(), ties.end());
  EXPECT_EQ(ties, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CompletionIndex, RandomizedDifferentialAgainstScan) {
  std::mt19937_64 gen(0xc0317);
  for (int round = 0; round < 10; ++round) {
    CompletionIndex idx;
    std::map<std::uint64_t, double> reference;
    std::uniform_int_distribution<int> op_pick(0, 9);
    std::uniform_int_distribution<std::uint64_t> id_pick(1, 60);
    std::uniform_real_distribution<double> key_pick(0.0, 1000.0);
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t id = id_pick(gen);
      if (op_pick(gen) < 6) {
        const double key = key_pick(gen);
        idx.upsert(id, key);
        reference[id] = key;
      } else {
        EXPECT_EQ(idx.erase(id), reference.erase(id) > 0);
      }
      ASSERT_EQ(idx.size(), reference.size());
      if (reference.empty()) {
        ASSERT_TRUE(idx.empty());
        continue;
      }
      // Brute-force scan: min by (key, id), exactly the order the index
      // promises.
      std::uint64_t best_id = 0;
      double best_key = std::numeric_limits<double>::infinity();
      for (const auto& [rid, rkey] : reference) {
        if (rkey < best_key || (rkey == best_key && rid < best_id)) {
          best_key = rkey;
          best_id = rid;
        }
      }
      // Random keys this far apart never share a few-ulp band.
      ASSERT_EQ(min_ties(idx), Ids{best_id}) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace dpjit::grid
