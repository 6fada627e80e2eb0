#include "exp/experiment.hpp"

#include <bit>
#include <chrono>

namespace dpjit::exp {

ExperimentResult summarize(const World& world, double wall_seconds) {
  const auto& metrics = world.metrics();
  const auto& system = world.system();
  ExperimentResult r;
  r.algorithm = world.config().algorithm;
  r.nodes = world.config().nodes;
  r.workflows_per_node = world.config().workflows_per_node;
  r.seed = world.config().seed;
  r.workflows_submitted = system.workflow_count();
  r.workflows_finished = metrics.finished();
  r.act = metrics.act();
  r.ae = metrics.ae();
  r.mean_response = metrics.mean_response();
  r.throughput = metrics.throughput_curve();
  r.act_over_time = metrics.act_curve();
  r.ae_over_time = metrics.ae_curve();
  r.converged_rss_size = metrics.converged_rss_size();
  r.converged_idle_known = metrics.converged_idle_known();
  r.ct_p50 = metrics.ct_quantile(0.50);
  r.ct_p95 = metrics.ct_quantile(0.95);
  r.ct_p99 = metrics.ct_quantile(0.99);
  r.live_reports = metrics.live_reports();
  r.tasks_dispatched = system.tasks_dispatched();
  r.tasks_failed = system.tasks_failed();
  r.tasks_rescheduled = system.tasks_rescheduled();
  r.tasks_reoffered = system.tasks_reoffered();
  r.schedule_points_offered = system.schedule_points_offered();
  r.ready_depth_max = system.ready_depth_max();
  r.gossip_messages = system.gossip_service().messages_sent();
  r.gossip_bytes = system.gossip_service().bytes_sent();
  r.gossip_floor_rejections = system.gossip_service().floor_rejections();
  const auto& transfers = system.transfers();
  r.solver_resumed = transfers.solver_resumed();
  r.solver_full = transfers.solver_full();
  r.probe_cache_hits = transfers.probe_cache_hits();
  r.probe_cache_misses = transfers.probe_cache_misses();
  r.link_aborts = transfers.link_aborts();
  r.wall_seconds = wall_seconds;
  return r;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  World world(config);
  world.run();
  const auto t1 = std::chrono::steady_clock::now();
  auto result = summarize(world, std::chrono::duration<double>(t1 - t0).count());
  result.events_processed = world.engine().processed();
  result.pending_max = world.engine().pending_max();
  return result;
}

std::uint64_t result_digest(const ExperimentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  // Exactly these fields, in this order: the fig11 anchor digest pinned by
  // BenchParity.Fig11PerfAnchorN500MatchesRecordedDigest depends on it.
  mix(std::bit_cast<std::uint64_t>(r.act));
  mix(std::bit_cast<std::uint64_t>(r.ae));
  mix(std::bit_cast<std::uint64_t>(r.mean_response));
  mix(r.workflows_finished);
  mix(r.tasks_dispatched);
  mix(r.tasks_failed);
  mix(r.gossip_messages);
  mix(r.events_processed);
  return h;
}

}  // namespace dpjit::exp
