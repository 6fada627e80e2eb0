// End-to-end fault injection through exp::World: message-level gossip with
// SWIM suspicion, link failure waves with transfer retries, crash/restart
// waves with task re-offer - all deterministic under a fixed seed.
#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "exp/workload_factory.hpp"

namespace dpjit::exp {
namespace {

ExperimentConfig small_world() {
  ExperimentConfig cfg;
  cfg.nodes = 40;
  cfg.workflows_per_node = 2;
  cfg.routing_threads = 1;
  return cfg;
}

std::uint64_t digest_of(const ExperimentConfig& cfg) {
  return result_digest(run_experiment(cfg));
}

TEST(FaultWorld, MessageGossipDisseminatesWithoutTheOracle) {
  // The derived per-cycle budget (3 * fanout + 4) every realism scenario
  // runs with.
  ExperimentConfig cfg = small_world();
  cfg.system.gossip.message_level = true;
  World w(cfg);
  w.run();
  const auto& gossip = w.system().gossip_service();
  ASSERT_NE(gossip.detector(), nullptr);
  // Views fill from real SYNC/ACK1/ACK2 exchanges, not from shared state,
  // even though the budget silences some replies (see the next test).
  EXPECT_GT(gossip.mean_rss_size(), 5.0);
  EXPECT_GT(gossip.messages_sent(), 0u);
  EXPECT_GT(w.system().finished_workflows(), 0u);
}

TEST(FaultWorld, TightMessageBudgetCausesRefutedSuspicions) {
  // The default budget (3 * fanout + 4) is deliberately tight: replies a
  // rate-limited node never sends look like missed probes. Those false
  // suspicions must be refuted by later direct contact, not accumulate.
  ExperimentConfig cfg = small_world();
  cfg.system.gossip.message_level = true;
  World w(cfg);
  w.run();
  const auto& gossip = w.system().gossip_service();
  EXPECT_GT(gossip.messages_suppressed(), 0u);
  ASSERT_NE(gossip.detector(), nullptr);
  EXPECT_GT(gossip.detector()->suspicions(), 0u);
  EXPECT_GT(gossip.detector()->refutations(), 0u);
  EXPECT_GT(w.system().finished_workflows(), 0u);
}

TEST(FaultWorld, MessageGossipIsDeterministic) {
  ExperimentConfig cfg = small_world();
  cfg.system.gossip.message_level = true;
  EXPECT_EQ(digest_of(cfg), digest_of(cfg));
}

ExperimentConfig lossy_world() {
  ExperimentConfig cfg = small_world();
  cfg.system.gossip.message_level = true;
  cfg.faults.msg_loss_p = 0.10;
  cfg.faults.msg_dup_p = 0.05;
  cfg.faults.msg_delay_p = 0.20;
  cfg.faults.msg_delay_max_s = 60.0;
  return cfg;
}

TEST(FaultWorld, LossyGossipDrawsEveryFaultKindAndStillWorks) {
  World w(lossy_world());
  w.run();
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_GT(w.fault_plan()->messages_lost(), 0u);
  EXPECT_GT(w.fault_plan()->messages_duplicated(), 0u);
  EXPECT_GT(w.fault_plan()->messages_delayed(), 0u);
  EXPECT_GT(w.system().finished_workflows(), 0u);
}

TEST(FaultWorld, LossyGossipIsDeterministic) {
  EXPECT_EQ(digest_of(lossy_world()), digest_of(lossy_world()));
}

ExperimentConfig link_wave_world() {
  ExperimentConfig cfg = small_world();
  cfg.faults.link_wave_period_s = 3600.0;
  cfg.faults.link_first_wave_s = 1800.0;
  cfg.faults.link_fail_fraction = 0.30;
  cfg.faults.link_downtime_s = 1200.0;
  cfg.system.transfer_retry.max_attempts = 5;
  return cfg;
}

TEST(FaultWorld, LinkWavesAbortTransfersAndRetriesRecover) {
  World w(link_wave_world());
  w.run();
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_GT(w.fault_plan()->link_failures(), 0u);
  EXPECT_GT(w.fault_plan()->link_recoveries(), 0u);
  // Some in-flight transfers crossed a failed link and were aborted...
  EXPECT_GT(w.system().transfers().link_aborts(), 0u);
  // ...yet the retry/backoff path kept the run productive.
  EXPECT_GT(w.system().finished_workflows(), 0u);
}

TEST(FaultWorld, LinkWavesAreDeterministic) {
  EXPECT_EQ(digest_of(link_wave_world()), digest_of(link_wave_world()));
}

ExperimentConfig crash_world() {
  ExperimentConfig cfg = small_world();
  cfg.system.gossip.message_level = true;
  // Lossy control traffic on top of the crashes: lost probes produce FALSE
  // suspicions of alive executors, which is what the re-offer path handles
  // (real crashes fail their tasks directly through handle_leave).
  cfg.faults.msg_loss_p = 0.15;
  cfg.faults.crash_period_s = 3600.0;
  cfg.faults.crash_first_s = 1800.0;
  cfg.faults.crash_fraction = 0.15;
  cfg.faults.crash_restart_s = 1200.0;
  cfg.faults.crash_exempt_fraction = 0.5;  // keep the home prefix up
  cfg.system.transfer_retry.max_attempts = 4;
  return cfg;
}

TEST(FaultWorld, CrashWavesDriveSuspicionAndReoffer) {
  World w(crash_world());
  w.run();
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_GT(w.fault_plan()->node_crashes(), 0u);
  EXPECT_GT(w.fault_plan()->node_restarts(), 0u);
  const auto* detector = w.system().gossip_service().detector();
  ASSERT_NE(detector, nullptr);
  // Crashed/silent executors stop answering SYNCs: suspicion, then death
  // declarations; survivors refute theirs on the next successful exchange.
  EXPECT_GT(detector->suspicions(), 0u);
  EXPECT_GT(detector->declared_dead(), 0u);
  EXPECT_GT(detector->refutations(), 0u);
  // Tasks sitting on dead-believed executors were pulled back and re-offered.
  EXPECT_GT(w.system().tasks_reoffered(), 0u);
  // The run summary (and so `--json`) carries the same count.
  EXPECT_EQ(summarize(w, 0.0).tasks_reoffered, w.system().tasks_reoffered());
  EXPECT_GT(w.system().finished_workflows(), 0u);
}

TEST(FaultWorld, CrashWavesAreDeterministic) {
  EXPECT_EQ(digest_of(crash_world()), digest_of(crash_world()));
}

}  // namespace
}  // namespace dpjit::exp
