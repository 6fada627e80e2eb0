#include "core/estimates.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace dpjit::core {
namespace {

gossip::ResourceEntry resource(int node, double load, double cap) {
  return gossip::ResourceEntry{NodeId{node}, load, cap, 0.0, 0};
}

TransferTimeFn flat_bw(double mbps) {
  return size_over_bandwidth([mbps](NodeId, NodeId) { return mbps; });
}

TEST(Estimates, QueuingDelayIsLoadOverCapacity) {
  EXPECT_DOUBLE_EQ(queuing_delay_s(resource(0, 100, 4)), 25.0);
  EXPECT_DOUBLE_EQ(queuing_delay_s(resource(0, 0, 4)), 0.0);
  EXPECT_DOUBLE_EQ(queuing_delay_s(resource(0, -5, 4)), 0.0);  // clamped
}

TEST(Estimates, ExecutionTime) {
  EXPECT_DOUBLE_EQ(execution_time_s(1000, resource(0, 0, 8)), 125.0);
}

TEST(Estimates, LtdTakesSlowestInput) {
  TaskEstimateInputs task;
  task.load_mi = 10;
  task.inputs = {{NodeId{1}, 100.0}, {NodeId{2}, 10.0}};
  const auto bw =
      size_over_bandwidth([](NodeId from, NodeId) { return from == NodeId{1} ? 10.0 : 1.0; });
  // Input from 1: 100/10 = 10 s; from 2: 10/1 = 10 s -> LTD = 10.
  EXPECT_DOUBLE_EQ(longest_transmission_delay_s(task, NodeId{0}, bw), 10.0);
}

TEST(Estimates, LocalInputsAreFree) {
  TaskEstimateInputs task;
  task.inputs = {{NodeId{5}, 1000.0}};
  EXPECT_DOUBLE_EQ(longest_transmission_delay_s(task, NodeId{5}, flat_bw(1.0)), 0.0);
}

TEST(Estimates, ZeroSizeInputsAreFree) {
  TaskEstimateInputs task;
  task.inputs = {{NodeId{1}, 0.0}};
  EXPECT_DOUBLE_EQ(longest_transmission_delay_s(task, NodeId{0}, flat_bw(1.0)), 0.0);
}

TEST(Estimates, ZeroBandwidthMeansInfiniteDelay) {
  TaskEstimateInputs task;
  task.inputs = {{NodeId{1}, 10.0}};
  EXPECT_TRUE(std::isinf(longest_transmission_delay_s(task, NodeId{0}, flat_bw(0.0))));
}

TEST(Estimates, StartTimeOverlapsQueueAndTransfers) {
  // Eq. (5): ST = max(R, LTD) - the two delays overlap in time.
  TaskEstimateInputs task;
  task.load_mi = 40;
  task.inputs = {{NodeId{1}, 100.0}};
  const auto r = resource(0, 200, 2);  // R = 100 s
  // LTD = 100/2 = 50 < R -> ST = R = 100; FT = 100 + 40/2 = 120.
  const auto est = estimate_finish_time(task, r, flat_bw(2.0));
  EXPECT_DOUBLE_EQ(est.start_s, 100.0);
  EXPECT_DOUBLE_EQ(est.finish_s, 120.0);
}

TEST(Estimates, TransferDominatesWhenSlower) {
  TaskEstimateInputs task;
  task.load_mi = 40;
  task.inputs = {{NodeId{1}, 1000.0}};
  const auto r = resource(0, 20, 2);  // R = 10 s, LTD = 500 s
  const auto est = estimate_finish_time(task, r, flat_bw(2.0));
  EXPECT_DOUBLE_EQ(est.start_s, 500.0);
  EXPECT_DOUBLE_EQ(est.finish_s, 520.0);
}

TEST(Estimates, IdleNodeNoInputsStartsImmediately) {
  TaskEstimateInputs task;
  task.load_mi = 16;
  const auto est = estimate_finish_time(task, resource(0, 0, 16), flat_bw(1.0));
  EXPECT_DOUBLE_EQ(est.start_s, 0.0);
  EXPECT_DOUBLE_EQ(est.finish_s, 1.0);
}

TEST(Estimates, FinishTimeMonotoneInLoadAndData) {
  // FT(tau, r) must never decrease when the task gets heavier or its inputs
  // larger - a sanity property Formula (9) relies on.
  util::Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    TaskEstimateInputs task;
    task.load_mi = rng.uniform(1, 10000);
    task.inputs.push_back(InputSource{NodeId{1}, rng.uniform(0, 5000)});
    task.inputs.push_back(InputSource{NodeId{2}, rng.uniform(0, 5000)});
    const auto r = resource(0, rng.uniform(0, 50000), rng.uniform(1, 16));
    const auto bw = flat_bw(rng.uniform(0.1, 10.0));
    const double base = estimate_finish_time(task, r, bw).finish_s;

    TaskEstimateInputs heavier = task;
    heavier.load_mi *= 1.5;
    EXPECT_GE(estimate_finish_time(heavier, r, bw).finish_s, base);

    TaskEstimateInputs chattier = task;
    chattier.inputs[0].size_mb *= 2.0;
    EXPECT_GE(estimate_finish_time(chattier, r, bw).finish_s, base);

    auto busier = r;
    busier.load_mi += 1000.0;
    EXPECT_GE(estimate_finish_time(task, busier, bw).finish_s, base);
  }
}

TEST(Estimates, FasterNodeWinsDespiteLoad) {
  // A common Formula (9) situation: loaded fast node vs idle slow node.
  TaskEstimateInputs task;
  task.load_mi = 1600;
  const auto fast = resource(0, 800, 16);  // R = 50, et = 100 -> FT = 150
  const auto slow = resource(1, 0, 1);     // R = 0, et = 1600 -> FT = 1600
  const auto bw = flat_bw(1.0);
  EXPECT_LT(estimate_finish_time(task, fast, bw).finish_s,
            estimate_finish_time(task, slow, bw).finish_s);
}

}  // namespace
}  // namespace dpjit::core
