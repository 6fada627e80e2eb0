#include "sim/periodic.hpp"

#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace dpjit::sim {
namespace {

TEST(Periodic, FiresAtFixedInterval) {
  Engine e;
  std::vector<double> times;
  PeriodicProcess p(e, 10.0, 5.0, [&](std::uint64_t) { times.push_back(e.now()); });
  p.start();
  e.run_until(27.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(Periodic, CycleIndicesIncrease) {
  Engine e;
  std::vector<std::uint64_t> cycles;
  PeriodicProcess p(e, 0.0, 1.0, [&](std::uint64_t c) { cycles.push_back(c); });
  p.start();
  e.run_until(3.5);
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(Periodic, StopHaltsFutureCycles) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, 0.0, 1.0, [&](std::uint64_t) {
    if (++count == 3) p.stop();
  });
  p.start();
  e.run_until(100.0);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(p.running());
}

TEST(Periodic, StartIsIdempotent) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, 0.0, 1.0, [&](std::uint64_t) { ++count; });
  p.start();
  p.start();
  e.run_until(2.5);
  EXPECT_EQ(count, 3);  // t = 0, 1, 2 - not doubled
}

TEST(Periodic, DestructionCancels) {
  Engine e;
  int count = 0;
  {
    PeriodicProcess p(e, 0.0, 1.0, [&](std::uint64_t) { ++count; });
    p.start();
    e.run_until(1.5);
  }
  e.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Periodic, RejectsNonPositiveInterval) {
  Engine e;
  EXPECT_THROW(PeriodicProcess(e, 0.0, 0.0, [](std::uint64_t) {}), std::invalid_argument);
}

TEST(Periodic, StartInThePastBeginsNow) {
  Engine e;
  e.schedule_at(50.0, [] {});
  e.run_all();
  std::vector<double> times;
  PeriodicProcess p(e, 10.0, 5.0, [&](std::uint64_t) { times.push_back(e.now()); });
  p.start();  // start time 10 < now 50: first cycle at now
  e.run_until(60.0);
  ASSERT_FALSE(times.empty());
  EXPECT_DOUBLE_EQ(times.front(), 50.0);
}

TEST(Trace, RecordsOnlyWhenEnabled) {
  Trace t;
  t.record(1.0, TraceKind::kDispatch, NodeId{1});
  EXPECT_TRUE(t.records().empty());
  t.enable(true);
  t.record(2.0, TraceKind::kDispatch, NodeId{1}, TaskRef{WorkflowId{0}, TaskIndex{1}}, "x");
  EXPECT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.count(TraceKind::kDispatch), 1u);
  EXPECT_EQ(t.count(TraceKind::kExecEnd), 0u);
}

TEST(Trace, PrintProducesLines) {
  Trace t;
  t.enable(true);
  t.record(1.0, TraceKind::kExecStart, NodeId{3}, TaskRef{WorkflowId{2}, TaskIndex{4}});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("EXEC_START"), std::string::npos);
  EXPECT_NE(os.str().find("node=3"), std::string::npos);
}

}  // namespace
}  // namespace dpjit::sim
