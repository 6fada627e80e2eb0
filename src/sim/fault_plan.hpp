// Deterministic fault injection (ROADMAP item 5).
//
// A FaultPlan is a seeded schedule of failures layered over an otherwise
// idealized run: per-message loss/duplication/extra-delay draws for the
// message-level gossip mode, periodic link failure/recovery waves, and
// periodic node crash/restart waves. Everything is driven by a private
// util::Rng stream forked from the experiment seed and delivered as ordinary
// timestamped events, so a faulty run is exactly as reproducible as a clean
// one (same seed + config => byte-identical digests).
//
// Neutrality invariant: a plan whose every probability/period is zero
// schedules NO events and consumes NO randomness. The result digest covers
// `events_processed`, so this is what makes an attached-but-idle plan
// provably result-neutral (tests/scenario/fault_differential_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/periodic.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dpjit::sim {

/// Knobs of the fault model. All-zero defaults mean "no faults".
struct FaultParams {
  // --- message-level faults (consumed by the gossip layer) -----------------
  /// Probability an individual protocol message is silently lost.
  double msg_loss_p = 0.0;
  /// Probability a message is delivered twice (UDP-style duplication).
  double msg_dup_p = 0.0;
  /// Probability a message suffers extra queueing delay...
  double msg_delay_p = 0.0;
  /// ...drawn uniformly from [0, msg_delay_max_s].
  double msg_delay_max_s = 0.0;

  // --- link failure/recovery waves -----------------------------------------
  /// Period between link-failure waves; 0 disables them.
  double link_wave_period_s = 0.0;
  /// Time of the first wave.
  double link_first_wave_s = 1800.0;
  /// Fraction of currently-up links failed per wave (floor, at least 1 when
  /// > 0 and any link is up).
  double link_fail_fraction = 0.0;
  /// Downtime before a failed link recovers.
  double link_downtime_s = 600.0;
  /// Probability a failure is permanent (no recovery scheduled).
  double link_permanent_p = 0.0;

  // --- node crash/restart waves --------------------------------------------
  /// Period between crash waves; 0 disables them.
  double crash_period_s = 0.0;
  /// Time of the first crash wave.
  double crash_first_s = 3600.0;
  /// Fraction of eligible up nodes crashed per wave.
  double crash_fraction = 0.0;
  /// Downtime before a crashed node restarts; <= 0 means crashes are
  /// permanent.
  double crash_restart_s = 1800.0;
  /// Nodes [0, ceil(fraction * n)) are exempt from crashes - the stable/home
  /// prefix of the id space (homes strand their workflows if crashed).
  double crash_exempt_fraction = 0.0;

  /// Test-only: attach the plan machinery even when every knob is zero (the
  /// differential neutrality test proves this changes nothing).
  bool force_attach = false;

  [[nodiscard]] bool message_faults() const {
    return msg_loss_p > 0.0 || msg_dup_p > 0.0 || (msg_delay_p > 0.0 && msg_delay_max_s > 0.0);
  }
  [[nodiscard]] bool link_faults() const {
    return link_wave_period_s > 0.0 && link_fail_fraction > 0.0;
  }
  [[nodiscard]] bool crash_faults() const {
    return crash_period_s > 0.0 && crash_fraction > 0.0;
  }
  [[nodiscard]] bool enabled() const {
    return message_faults() || link_faults() || crash_faults() || force_attach;
  }
};

/// Outcome of one per-message fault draw.
struct MessageFate {
  bool lost = false;
  /// Delivery count when not lost (2 = duplicated).
  int copies = 1;
  /// Extra queueing delay added to the network latency.
  double extra_delay_s = 0.0;
};

/// Seeded fault schedule bound to one engine. The owner wires the link/node
/// handlers (routing repair, transfer aborts, crash injection) and calls
/// start(); the gossip layer pulls per-message fates via draw_message_fate().
class FaultPlan {
 public:
  using LinkFn = std::function<void(LinkId)>;
  using NodeFn = std::function<void(NodeId)>;

  /// `rng` should be a stream forked exclusively for the plan (e.g.
  /// fork("faults")) so its draws are invisible to every other subsystem.
  FaultPlan(Engine& engine, FaultParams params, int node_count, int link_count, util::Rng rng);

  /// Called when a wave takes a link down / brings it back up.
  void set_link_handlers(LinkFn on_down, LinkFn on_up);
  /// Called when a wave crashes / restarts a node.
  void set_node_handlers(NodeFn on_crash, NodeFn on_restart);

  /// Schedules the wave processes. A plan with no link/crash faults schedules
  /// nothing (neutrality invariant above).
  void start();
  void stop();

  /// One fault draw for one protocol message. Consumes randomness only when
  /// message faults are configured; otherwise returns the default fate
  /// without touching the stream.
  [[nodiscard]] MessageFate draw_message_fate();

  [[nodiscard]] const FaultParams& params() const { return params_; }

  // --- counters (ExperimentResult's fault_*; not part of the result digest) --
  [[nodiscard]] std::uint64_t messages_lost() const { return messages_lost_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return messages_duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return messages_delayed_; }
  [[nodiscard]] std::uint64_t link_failures() const { return link_failures_; }
  [[nodiscard]] std::uint64_t link_recoveries() const { return link_recoveries_; }
  [[nodiscard]] std::uint64_t node_crashes() const { return node_crashes_; }
  [[nodiscard]] std::uint64_t node_restarts() const { return node_restarts_; }

 private:
  void link_wave();
  void crash_wave();

  Engine& engine_;
  FaultParams params_;
  int nodes_;
  int links_;
  util::Rng rng_;
  LinkFn on_link_down_;
  LinkFn on_link_up_;
  NodeFn on_crash_;
  NodeFn on_restart_;
  /// The plan's own view of which links/nodes IT took down (independent of
  /// churn, which has its own machinery).
  std::vector<char> link_down_;
  std::vector<char> node_down_;
  std::unique_ptr<PeriodicProcess> link_waves_;
  std::unique_ptr<PeriodicProcess> crash_waves_;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t messages_duplicated_ = 0;
  std::uint64_t messages_delayed_ = 0;
  std::uint64_t link_failures_ = 0;
  std::uint64_t link_recoveries_ = 0;
  std::uint64_t node_crashes_ = 0;
  std::uint64_t node_restarts_ = 0;
};

}  // namespace dpjit::sim
