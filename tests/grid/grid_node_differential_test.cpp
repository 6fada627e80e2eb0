// GridNode's indexed ready set against a naive arrival-ordered vector.
//
// The reference keeps the ready set as a plain std::vector that is scanned
// and erased in place, exactly as the ready set was kept before it got a
// TaskRef index, tombstones and a cached load sum. Seeded random sequences of
// add / input_arrived / remove / start / finish / drain must leave both with
// the same queued tasks in the same order, the same phase-2 candidates in
// the same order, and a bitwise-equal total_load_mi.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/grid_node.hpp"
#include "util/rng.hpp"

namespace dpjit::grid {
namespace {

class NaiveNode {
 public:
  explicit NaiveNode(double capacity) : capacity_(capacity) {}

  ReadyTask* find(TaskRef ref) {
    for (auto& t : ready_) {
      if (t.ref == ref) return &t;
    }
    return nullptr;
  }
  void add(const ReadyTask& t) { ready_.push_back(t); }
  bool input_arrived(TaskRef ref, SimTime now) {
    ReadyTask* t = find(ref);
    if (t == nullptr || --t->pending_inputs != 0) return false;
    t->data_ready_at = now;
    return true;
  }
  bool remove(TaskRef ref) {
    const auto before = ready_.size();
    std::erase_if(ready_, [&](const ReadyTask& t) { return t.ref == ref; });
    return ready_.size() != before;
  }
  [[nodiscard]] std::vector<const ReadyTask*> data_complete() const {
    std::vector<const ReadyTask*> out;
    for (const auto& t : ready_) {
      if (t.pending_inputs == 0) out.push_back(&t);
    }
    return out;
  }
  void start(TaskRef ref, SimTime now) {
    running_ = *find(ref);
    remove(ref);
    started_ = now;
    finishes_ = now + running_->load_mi / capacity_;
  }
  void finish() { running_.reset(); }
  std::vector<ReadyTask> drain() { return std::exchange(ready_, {}); }
  [[nodiscard]] double total_load_mi(SimTime now) const {
    double sum = 0.0;
    for (const auto& t : ready_) sum += t.load_mi;
    if (running_) {
      const double span = finishes_ - started_;
      const double frac = span <= 0.0 ? 0.0 : std::clamp((finishes_ - now) / span, 0.0, 1.0);
      sum += running_->load_mi * frac;
    }
    return sum;
  }
  [[nodiscard]] const std::vector<ReadyTask>& ready() const { return ready_; }
  [[nodiscard]] bool busy() const { return running_.has_value(); }

 private:
  double capacity_;
  std::vector<ReadyTask> ready_;
  std::optional<ReadyTask> running_;
  SimTime started_ = kNoTime;
  SimTime finishes_ = kNoTime;
};

std::vector<TaskRef> refs_of(const std::vector<const ReadyTask*>& tasks) {
  std::vector<TaskRef> out;
  for (const ReadyTask* t : tasks) out.push_back(t->ref);
  return out;
}

std::vector<TaskRef> refs_of(const std::vector<ReadyTask>& tasks) {
  std::vector<TaskRef> out;
  for (const ReadyTask& t : tasks) out.push_back(t.ref);
  return out;
}

void expect_same(const GridNode& node, const NaiveNode& naive, SimTime now) {
  std::vector<const ReadyTask*> want;
  for (const auto& t : naive.ready()) want.push_back(&t);
  ASSERT_EQ(refs_of(node.ready()), refs_of(want));
  const auto got_complete = node.data_complete();
  const auto want_complete = naive.data_complete();
  ASSERT_EQ(refs_of(got_complete), refs_of(want_complete));
  for (std::size_t i = 0; i < got_complete.size(); ++i) {
    EXPECT_EQ(got_complete[i]->data_ready_at, want_complete[i]->data_ready_at);
  }
  // Bitwise: the cached sum must be the same left-to-right fold.
  ASSERT_EQ(node.total_load_mi(now), naive.total_load_mi(now));
}

/// One seeded run. `add_bias` skews the mix toward additions so the ready
/// set grows deep enough for compactions to happen; `drain` is the share of
/// steps that empty it.
void run_sequence(std::uint64_t seed, double add_bias, double drain, int steps) {
  util::Rng rng(seed);
  GridNode node(NodeId{0}, 7.0);
  NaiveNode naive(7.0);
  SimTime now = 0.0;
  std::uint64_t seq = 0;
  std::size_t deepest = 0;
  const auto random_ref = [&rng] {
    return TaskRef{WorkflowId{static_cast<int>(rng.uniform_int(0, 7))},
                   TaskIndex{static_cast<int>(rng.uniform_int(0, 63))}};
  };
  for (int step = 0; step < steps; ++step) {
    now += rng.uniform(0.0, 3.0);
    const double op = rng.uniform01();
    if (op < add_bias) {
      ReadyTask t;
      t.ref = random_ref();
      // Loads with many significant bits, so any reordering of the sum shows.
      t.load_mi = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform_int(0, 6));
      t.pending_inputs = static_cast<int>(rng.uniform_int(0, 3));
      t.arrived_at = now;
      t.arrival_seq = seq++;
      if (naive.find(t.ref) != nullptr) {
        EXPECT_THROW(node.add_ready(t), std::logic_error);
      } else {
        node.add_ready(t);
        naive.add(t);
      }
    } else if (op < add_bias + 0.25) {
      const TaskRef ref = random_ref();
      ASSERT_EQ(node.input_arrived(ref, now), naive.input_arrived(ref, now));
    } else if (op < add_bias + 0.35) {
      // Remove a queued task half the time, an arbitrary ref otherwise.
      TaskRef ref = random_ref();
      if (!naive.ready().empty() && rng.bernoulli(0.5)) {
        ref = naive.ready()[rng.index(naive.ready().size())].ref;
      }
      ASSERT_EQ(node.remove_ready(ref), naive.remove(ref));
    } else if (op < add_bias + 0.45) {
      if (!naive.busy()) {
        const auto candidates = naive.data_complete();
        if (!candidates.empty()) {
          const TaskRef ref = candidates[rng.index(candidates.size())]->ref;
          node.start_running(ref, now);
          naive.start(ref, now);
        }
      } else {
        node.finish_running();
        naive.finish();
      }
    } else if (op < add_bias + 0.45 + drain) {
      ASSERT_EQ(refs_of(node.drain_ready()), refs_of(naive.drain()));
    }
    deepest = std::max(deepest, naive.ready().size());
    expect_same(node, naive, now);
  }
  EXPECT_EQ(node.ready_depth_max(), deepest);
}

TEST(GridNodeDifferential, ShallowReadySetsMatchTheNaiveVector) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) run_sequence(seed, 0.3, 0.005, 3000);
}

TEST(GridNodeDifferential, DeepReadySetsMatchTheNaiveVector) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) run_sequence(seed, 0.5, 0.0005, 6000);
}

}  // namespace
}  // namespace dpjit::grid
