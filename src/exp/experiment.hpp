// One-shot experiment execution and its condensed result record.
#pragma once

#include <string>
#include <vector>

#include "exp/workload_factory.hpp"

namespace dpjit::exp {

/// Summary of one simulation run (one algorithm, one configuration).
struct ExperimentResult {
  std::string algorithm;
  int nodes = 0;
  int workflows_per_node = 0;
  std::uint64_t seed = 0;

  std::size_t workflows_submitted = 0;
  std::size_t workflows_finished = 0;
  /// ACT (Eq. 2) over finished workflows, seconds.
  double act = 0.0;
  /// AE (Eq. 3) over finished workflows.
  double ae = 0.0;
  /// Mean submission->completion response time, seconds.
  double mean_response = 0.0;

  std::vector<CurvePoint> throughput;
  std::vector<CurvePoint> act_over_time;
  std::vector<CurvePoint> ae_over_time;

  double converged_rss_size = 0.0;
  double converged_idle_known = 0.0;
  /// Completion-time quantiles: exact under the retaining collector,
  /// t-digest estimates under streaming_metrics. NaN when nothing finished.
  /// NOT part of result_digest (the estimates are collector-dependent).
  double ct_p50 = 0.0;
  double ct_p95 = 0.0;
  double ct_p99 = 0.0;
  /// Per-workflow report records held live at the end of the run: finished()
  /// for the retaining collector, <= the reservoir bound for streaming.
  std::size_t live_reports = 0;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t tasks_rescheduled = 0;
  /// Tasks pulled back from executors their home suspects dead
  /// (message-level gossip). NOT part of result_digest.
  std::uint64_t tasks_reoffered = 0;
  /// Schedule points offered to the first phase over all cycles: the
  /// scheduler's per-cycle work, which tracks the frontier, not the backlog.
  std::uint64_t schedule_points_offered = 0;
  std::uint64_t gossip_messages = 0;
  std::uint64_t gossip_bytes = 0;
  /// Gossip entries skipped by the receiver's stamp floor (the delivery fast
  /// path's hit count). NOT part of result_digest.
  std::uint64_t gossip_floor_rejections = 0;
  /// Contended network modes: fair-share solver mutations that resumed a
  /// recorded fill / re-solved their component from scratch, live-rate
  /// probes answered by the pair cache / by a fresh solver probe, and
  /// transfers aborted by link failures. All 0 where they do not apply.
  /// The resumed/full split depends on the probe pattern as well: a probe
  /// may record a component, letting its next mutation resume. NOT part of
  /// result_digest.
  std::uint64_t solver_resumed = 0;
  std::uint64_t solver_full = 0;
  std::uint64_t probe_cache_hits = 0;
  std::uint64_t probe_cache_misses = 0;
  std::uint64_t link_aborts = 0;
  /// The deepest any node's phase-2 ready set got. NOT part of result_digest.
  std::uint64_t ready_depth_max = 0;
  std::uint64_t events_processed = 0;
  /// The most events the engine held pending at once (sim::Engine::
  /// pending_max). NOT part of result_digest.
  std::uint64_t pending_max = 0;
  // Counters that explain a run, none of them part of result_digest (a run
  // rebuilt outside World, like perfbench's traced one, leaves them 0), and
  // each 0 where its source is not attached.
  /// What the fault plan injected: dropped, duplicated and delayed gossip
  /// messages, link failures and recoveries, node crashes and restarts. 0
  /// when config.faults is all-zero.
  std::uint64_t fault_messages_lost = 0;
  std::uint64_t fault_messages_duplicated = 0;
  std::uint64_t fault_messages_delayed = 0;
  std::uint64_t fault_link_failures = 0;
  std::uint64_t fault_link_recoveries = 0;
  std::uint64_t fault_node_crashes = 0;
  std::uint64_t fault_node_restarts = 0;
  /// The message-level failure detector's suspicions, refutations and death
  /// declarations, and the sends the per-cycle budget suppressed. 0 in the
  /// idealized gossip mode.
  std::uint64_t detector_suspicions = 0;
  std::uint64_t detector_refutations = 0;
  std::uint64_t detector_declared_dead = 0;
  std::uint64_t gossip_messages_suppressed = 0;
  /// Churn steps run and the departures and rejoins they made.
  std::uint64_t churn_steps = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_joins = 0;
  /// Epoch barriers the quantised-fair network ran (0 in other modes).
  std::uint64_t quantised_barriers = 0;
  /// Routing source rows rebuilt by link-failure repairs.
  std::uint64_t routing_repaired_rows = 0;
  double wall_seconds = 0.0;
};

/// Builds a World from the config, runs it to the horizon and summarizes.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Extracts the summary from an already-run World.
[[nodiscard]] ExperimentResult summarize(const World& world, double wall_seconds);

/// FNV-1a over the bit patterns of the result's headline metrics: a cheap
/// fingerprint for "this change did not alter simulation output". Excludes
/// wall-clock time, so the digest is machine-independent; used by the
/// benchmark's pins, the scenario conformance tier and CI golden-digest checks.
[[nodiscard]] std::uint64_t result_digest(const ExperimentResult& r);

}  // namespace dpjit::exp
