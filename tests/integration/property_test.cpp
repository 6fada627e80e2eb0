// Cross-cutting property sweeps: the system must stay physically consistent
// for every workload regime (CCR presets), network model and load factor, and
// the phase-2 comparators must define deterministic total preorders.
#include <gtest/gtest.h>

#include "core/algorithm.hpp"
#include "exp/experiment.hpp"
#include "util/rng.hpp"

namespace dpjit::exp {
namespace {

struct Regime {
  const char* name;
  double load_lo, load_hi, data_lo, data_hi;
};

constexpr Regime kRegimes[] = {
    {"compute_heavy", 100, 10000, 10, 1000},
    {"transfer_heavy", 10, 1000, 100, 10000},
    {"tiny_tasks", 10, 100, 10, 100},
};

class RegimeSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RegimeSweep, WorkflowsMakeProgressAndMetricsStayPhysical) {
  const auto [regime_idx, seed] = GetParam();
  const Regime& regime = kRegimes[regime_idx];
  ExperimentConfig cfg;
  cfg.algorithm = "dsmf";
  cfg.nodes = 20;
  cfg.workflows_per_node = 2;
  cfg.workflow.max_tasks = 12;
  cfg.set_load_range(regime.load_lo, regime.load_hi);
  cfg.set_data_range(regime.data_lo, regime.data_hi);
  cfg.seed = seed;
  const auto result = run_experiment(cfg);

  // Whatever the regime, the run must finish work and keep metrics physical.
  EXPECT_GT(result.workflows_finished, 0u) << regime.name;
  EXPECT_GT(result.act, 0.0);
  EXPECT_GT(result.ae, 0.0);
  EXPECT_GE(result.mean_response, result.act);
  EXPECT_GE(result.tasks_dispatched,
            result.workflows_finished);  // at least one task per workflow
  // Completion time can never beat the best possible critical path: the
  // fastest node is 16 MIPS, so ct >= min task chain time > 0. Weak but
  // universal: AE stays below the ratio between eft-averages and the best
  // possible speedup (avg capacity ~6.2 -> at most ~16/6.2 x faster + data
  // term; 5x is a safe physical ceiling).
  EXPECT_LE(result.ae, 5.0) << regime.name;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RegimeSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values<std::uint64_t>(1, 7, 42)),
    [](const auto& info) {
      return std::string(kRegimes[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(NetworkModelProperty, FairSharingNeverFinishesMoreThanBottleneck) {
  // Contention can only delay transfers; with the same horizon the fair model
  // can never complete more workflows than the uncontended model.
  for (std::uint64_t seed : {3u, 9u}) {
    ExperimentConfig cfg;
    cfg.algorithm = "dsmf";
    cfg.nodes = 16;
    cfg.workflows_per_node = 2;
    cfg.workflow.max_tasks = 10;
    cfg.seed = seed;
    cfg.system.horizon_s = 8 * 3600.0;  // tight horizon so the bound can bind
    const auto base = run_experiment(cfg);
    cfg.system.network_mode = net::NetworkMode::kFluidFair;
    const auto fair = run_experiment(cfg);
    EXPECT_LE(fair.workflows_finished, base.workflows_finished) << "seed " << seed;
  }
}

// --- phase-2 comparator properties ------------------------------------------

grid::ReadyTask random_task(util::Rng& rng, std::uint64_t seq) {
  grid::ReadyTask t;
  t.ref = TaskRef{WorkflowId{static_cast<int>(rng.uniform_int(0, 5))},
                  TaskIndex{static_cast<int>(rng.uniform_int(0, 30))}};
  t.load_mi = rng.uniform(1, 10000);
  t.rpm = rng.uniform(0, 1000);
  t.wf_makespan = rng.uniform(0, 1000);
  t.slack = t.wf_makespan - t.rpm;
  t.sufferage = rng.uniform(0, 100);
  t.arrival_seq = seq;
  return t;
}

class ReadyPolicyProperty : public ::testing::TestWithParam<std::string_view> {};

TEST_P(ReadyPolicyProperty, SelectionIsStableUnderPermutation) {
  // The winner must be the same task no matter how the candidate vector is
  // ordered - guaranteed by the arrival_seq tie-breaks.
  util::Rng rng(1234);
  const auto better = core::ready_comparator(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::vector<grid::ReadyTask> tasks;
    for (std::uint64_t i = 0; i < 12; ++i) tasks.push_back(random_task(rng, i));
    std::vector<const grid::ReadyTask*> view;
    for (const auto& t : tasks) view.push_back(&t);
    const grid::ReadyTask* first_winner = view[core::select_ready(better, view)];
    for (int perm = 0; perm < 5; ++perm) {
      rng.shuffle(view);
      const grid::ReadyTask* winner = view[core::select_ready(better, view)];
      EXPECT_EQ(winner->arrival_seq, first_winner->arrival_seq)
          << GetParam() << " round " << round;
    }
  }
}

TEST_P(ReadyPolicyProperty, WinnerIsNoWorseThanEveryCandidate) {
  // Spot-check the defining property of each comparator on the winner.
  util::Rng rng(99);
  const auto better = core::ready_comparator(GetParam());
  for (int round = 0; round < 30; ++round) {
    std::vector<grid::ReadyTask> tasks;
    for (std::uint64_t i = 0; i < 8; ++i) tasks.push_back(random_task(rng, i));
    std::vector<const grid::ReadyTask*> view;
    for (const auto& t : tasks) view.push_back(&t);
    const grid::ReadyTask& w = *view[core::select_ready(better, view)];
    for (const auto* t : view) {
      if (GetParam() == "dsmf") {
        EXPECT_LE(w.wf_makespan, t->wf_makespan);
      } else if (GetParam() == "lrpm") {
        EXPECT_GE(w.rpm, t->rpm);
      } else if (GetParam() == "slack") {
        EXPECT_LE(w.slack, t->slack);
      } else if (GetParam() == "stf") {
        EXPECT_LE(w.load_mi, t->load_mi);
      } else if (GetParam() == "ltf") {
        EXPECT_GE(w.load_mi, t->load_mi);
      } else if (GetParam() == "lsf") {
        EXPECT_GE(w.sufferage, t->sufferage);
      } else if (GetParam() == "fcfs") {
        EXPECT_LE(w.arrival_seq, t->arrival_seq);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReadyPolicyProperty,
                         ::testing::ValuesIn(core::ready_comparator_names()),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace dpjit::exp
