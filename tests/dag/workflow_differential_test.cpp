// dag::Workflow's CSR storage against a naive vector-of-vectors reference.
//
// The reference keeps one successor, successor-data and predecessor vector
// per task, checks duplicates with a linear find, and sorts with Kahn's
// algorithm over those vectors, as the workflow did before its adjacency was
// frozen into flat arrays. Seeded random builds interleave reads with
// mutations (so edges land in the pending list after a freeze), normalize
// after reads, and must agree on every adjacency list, its order, the edge
// data, the entry/exit sets, the thrown exceptions and the topological order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/workflow.hpp"
#include "util/rng.hpp"

namespace dpjit::dag {
namespace {

class NaiveDag {
 public:
  void add_task(double load) {
    loads_.push_back(load);
    succ_.emplace_back();
    data_.emplace_back();
    pred_.emplace_back();
  }
  /// "" when the edge was added, else the kind of error Workflow must throw.
  std::string add_edge(int from, int to, double mb) {
    if (from == to) return "self";
    auto& s = succ_[static_cast<std::size_t>(from)];
    if (std::find(s.begin(), s.end(), to) != s.end()) return "duplicate";
    s.push_back(to);
    data_[static_cast<std::size_t>(from)].push_back(mb);
    pred_[static_cast<std::size_t>(to)].push_back(from);
    return "";
  }
  [[nodiscard]] std::vector<int> sources() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < pred_.size(); ++i) {
      if (pred_[i].empty()) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  [[nodiscard]] std::vector<int> sinks() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < succ_.size(); ++i) {
      if (succ_[i].empty()) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  [[nodiscard]] std::vector<int> kahn() const {
    std::vector<std::size_t> indeg(pred_.size());
    for (std::size_t i = 0; i < pred_.size(); ++i) indeg[i] = pred_[i].size();
    std::vector<int> order = sources();
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (int s : succ_[static_cast<std::size_t>(order[head])]) {
        if (--indeg[static_cast<std::size_t>(s)] == 0) order.push_back(s);
      }
    }
    return order;
  }
  void normalize() {
    const auto entries = sources();
    if (entries.size() > 1) {
      add_task(0.0);
      for (int e : entries) add_edge(size() - 1, e, 0.0);
    }
    const auto exits = sinks();
    if (exits.size() > 1) {
      add_task(0.0);
      for (int e : exits) add_edge(e, size() - 1, 0.0);
    }
  }
  [[nodiscard]] int size() const { return static_cast<int>(loads_.size()); }
  [[nodiscard]] const std::vector<int>& succ(int t) const {
    return succ_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::vector<double>& data(int t) const {
    return data_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::vector<int>& pred(int t) const {
    return pred_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::size_t edges() const {
    std::size_t n = 0;
    for (const auto& s : succ_) n += s.size();
    return n;
  }

 private:
  std::vector<double> loads_;
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<double>> data_;
  std::vector<std::vector<int>> pred_;
};

TaskIndex ti(int i) { return TaskIndex{i}; }

std::vector<int> ints(std::span<const TaskIndex> v) {
  std::vector<int> out;
  for (TaskIndex t : v) out.push_back(t.get());
  return out;
}

std::vector<int> ints(const std::vector<TaskIndex>& v) { return ints(std::span(v)); }

void expect_same(const Workflow& wf, const NaiveDag& ref) {
  ASSERT_EQ(wf.task_count(), static_cast<std::size_t>(ref.size()));
  ASSERT_EQ(wf.edge_count(), ref.edges());
  EXPECT_EQ(ints(wf.entry_tasks()), ref.sources());
  EXPECT_EQ(ints(wf.exit_tasks()), ref.sinks());
  for (int t = 0; t < ref.size(); ++t) {
    ASSERT_EQ(ints(wf.successors(ti(t))), ref.succ(t)) << "task " << t;
    ASSERT_EQ(ints(wf.predecessors(ti(t))), ref.pred(t)) << "task " << t;
    const auto data = wf.successor_data(ti(t));
    ASSERT_EQ(std::vector<double>(data.begin(), data.end()), ref.data(t)) << "task " << t;
    for (std::size_t k = 0; k < ref.succ(t).size(); ++k) {
      EXPECT_EQ(wf.edge_data(ti(t), ti(ref.succ(t)[k])), ref.data(t)[k]);
    }
  }
  const auto order = ref.kahn();
  EXPECT_EQ(ints(wf.topological_order()), order);
  EXPECT_EQ(wf.is_acyclic(), order.size() == static_cast<std::size_t>(ref.size()));
}

/// Reads a few random tasks' adjacency (freezing the workflow as a side
/// effect) and checks them against the reference.
void spot_check(const Workflow& wf, const NaiveDag& ref, util::Rng& rng) {
  for (int k = 0; k < 3; ++k) {
    const int t = static_cast<int>(rng.index(static_cast<std::size_t>(ref.size())));
    ASSERT_EQ(ints(wf.successors(ti(t))), ref.succ(t));
    ASSERT_EQ(ints(wf.predecessors(ti(t))), ref.pred(t));
  }
}

void run_build(std::uint64_t seed) {
  util::Rng rng(seed);
  Workflow wf(WorkflowId{1});
  NaiveDag ref;
  const int tasks = static_cast<int>(rng.uniform_int(1, 40));
  // Mostly forward edges keep most builds acyclic; a few back edges make
  // cycles (and stranded tasks) happen too.
  const double back_edge = rng.bernoulli(0.3) ? 0.05 : 0.0;
  for (int step = 0; step < tasks * 5; ++step) {
    if (ref.size() < 2 || (ref.size() < tasks && rng.bernoulli(0.3))) {
      const double load = rng.uniform(0.0, 100.0);
      // snprintf, not "n" + std::to_string: the latter trips GCC 12's
      // -Wrestrict false positive (GCC bug 105329) under -O2.
      char label[16] = "";
      if (rng.bernoulli(0.5)) std::snprintf(label, sizeof(label), "n%d", ref.size());
      const std::string name = label;
      ASSERT_EQ(wf.add_task(load, 1.0, name).get(), ref.size());
      ref.add_task(load);
      EXPECT_EQ(wf.name(ti(ref.size() - 1)), name);
      continue;
    }
    int from = static_cast<int>(rng.index(static_cast<std::size_t>(ref.size())));
    int to = static_cast<int>(rng.index(static_cast<std::size_t>(ref.size())));
    if (from > to && !rng.bernoulli(back_edge)) std::swap(from, to);
    const double mb = rng.uniform(0.0, 50.0);
    const std::string error = ref.add_edge(from, to, mb);
    if (error.empty()) {
      wf.add_dependency(ti(from), ti(to), mb);
    } else {
      EXPECT_THROW(wf.add_dependency(ti(from), ti(to), mb), std::invalid_argument) << error;
    }
    if (rng.bernoulli(0.1)) spot_check(wf, ref, rng);
  }
  if (rng.bernoulli(0.5)) expect_same(wf, ref);
  // A copy carries the same graph, frozen or not.
  const Workflow copy = wf;
  expect_same(copy, ref);
  wf.normalize();
  ref.normalize();
  expect_same(wf, ref);
  wf.normalize();  // idempotent
  expect_same(wf, ref);
}

TEST(WorkflowDifferential, RandomBuildsMatchTheVectorOfVectorsReference) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    run_build(seed);
  }
}

TEST(WorkflowDifferential, EdgesAfterAFreezeKeepInsertionOrder) {
  // successors(a) freezes {a->c}; a->b and d->c then wait in the pending
  // list and must land behind the frozen edges of a and of c.
  Workflow wf;
  for (int i = 0; i < 4; ++i) wf.add_task(1.0, 1.0);
  wf.add_dependency(ti(0), ti(2), 1.0);
  ASSERT_EQ(ints(wf.successors(ti(0))), std::vector<int>({2}));
  wf.add_dependency(ti(0), ti(1), 2.0);
  wf.add_dependency(ti(3), ti(2), 3.0);
  EXPECT_THROW(wf.add_dependency(ti(0), ti(2), 4.0), std::invalid_argument);  // frozen dup
  EXPECT_THROW(wf.add_dependency(ti(3), ti(2), 4.0), std::invalid_argument);  // pending dup
  EXPECT_EQ(ints(wf.successors(ti(0))), std::vector<int>({2, 1}));
  EXPECT_EQ(ints(wf.predecessors(ti(2))), std::vector<int>({0, 3}));
  EXPECT_EQ(wf.edge_data(ti(0), ti(1)), 2.0);
  EXPECT_EQ(ints(wf.topological_order()), std::vector<int>({0, 3, 1, 2}));
}

}  // namespace
}  // namespace dpjit::dag
