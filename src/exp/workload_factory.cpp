#include "exp/workload_factory.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dag/templates.hpp"

namespace dpjit::exp {
namespace {

int log2_ceil(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return std::max(1, k);
}

net::Topology build_topology(const ExperimentConfig& cfg, util::Rng& rng) {
  const net::TopologyParams params{cfg.nodes};
  auto topo_rng = rng.fork("topology");
  return net::Topology::generate_waxman(params, topo_rng);
}

core::SystemConfig build_system_config(const ExperimentConfig& cfg) {
  core::SystemConfig sys = cfg.system;
  sys.seed = cfg.seed;
  sys.fair_sharing = cfg.fair_sharing;
  sys.reschedule_failed = cfg.reschedule;
  if (cfg.dynamic_factor > 0.0) {
    sys.churn.dynamic_factor = cfg.dynamic_factor;
    if (sys.churn.stable_count == 0) sys.churn.stable_count = cfg.nodes / 2;
  }
  return sys;
}

MetricsCollector build_metrics(const ExperimentConfig& cfg, const util::Rng& rng) {
  if (cfg.streaming_metrics) {
    // Dedicated RNG fork: reservoir draws must not perturb (or be perturbed
    // by) any simulation stream, or streaming-vs-retaining digests diverge.
    return MetricsCollector(cfg.system.horizon_s, rng.fork("metrics-reservoir"));
  }
  return MetricsCollector(cfg.system.horizon_s);
}

void validate_mix(const std::vector<WorkloadMixEntry>& mix) {
  for (const auto& e : mix) {
    if (e.weight <= 0.0) throw std::invalid_argument("workload_mix: weight > 0");
    if (e.family != "random" && e.family != "montage" && e.family != "fork-join" &&
        e.family != "pipeline" && e.family != "diamond") {
      throw std::invalid_argument("workload_mix: unknown family '" + e.family + "'");
    }
    if (e.family != "random" && e.family != "diamond" && e.size < 2) {
      throw std::invalid_argument("workload_mix: template size >= 2");
    }
  }
}

/// Draws one workflow from the mix. Template task sizes come from the
/// midpoints of the random-family ranges, so a mix stays comparable with the
/// random workload it replaces.
dag::Workflow draw_from_mix(const ExperimentConfig& cfg, util::Rng& rng) {
  double total = 0.0;
  for (const auto& e : cfg.workload_mix) total += e.weight;
  double ticket = rng.uniform(0.0, total);
  const WorkloadMixEntry* pick = &cfg.workload_mix.back();
  for (const auto& e : cfg.workload_mix) {
    if (ticket < e.weight) {
      pick = &e;
      break;
    }
    ticket -= e.weight;
  }

  dag::TemplateParams tpl;
  tpl.load_mi = 0.5 * (cfg.workflow.min_load_mi + cfg.workflow.max_load_mi);
  tpl.image_mb = 0.5 * (dag::kMinImageMb + dag::kMaxImageMb);
  tpl.data_mb = 0.5 * (cfg.workflow.min_data_mb + cfg.workflow.max_data_mb);
  if (pick->family == "montage") return dag::make_montage(WorkflowId{}, pick->size, tpl);
  if (pick->family == "fork-join") return dag::make_fork_join(WorkflowId{}, 2, pick->size, tpl);
  if (pick->family == "pipeline") return dag::make_pipeline(WorkflowId{}, pick->size, tpl);
  if (pick->family == "diamond") return dag::make_diamond(WorkflowId{}, 2.0, tpl);
  return dag::generate_workflow(WorkflowId{}, cfg.workflow, rng);
}

}  // namespace

World::World(const ExperimentConfig& config)
    : config_(config),
      rng_(config.seed),
      topo_(build_topology(config, rng_)),
      routing_(topo_, config.routing_threads),
      landmarks_([&]() -> net::LandmarkEstimator {
        auto lm_rng = rng_.fork("landmarks");
        return net::LandmarkEstimator(routing_, log2_ceil(config.nodes), lm_rng);
      }()),
      metrics_(build_metrics(config, rng_)) {
  if (config.nodes < 1) throw std::invalid_argument("World: nodes >= 1");
  if (config.workflows_per_node < 0) throw std::invalid_argument("World: workflows_per_node >= 0");
  if (config.bursts.wave_count < 0) throw std::invalid_argument("World: bursts.wave_count >= 0");
  validate_mix(config.workload_mix);

  engine_.reserve(config.event_capacity_hint != 0
                      ? config.event_capacity_hint
                      : static_cast<std::size_t>(config.nodes) * 16 + 1024);

  std::vector<double> capacities;
  capacities.reserve(static_cast<std::size_t>(config.nodes));
  auto cap_rng = rng_.fork("capacity");
  for (int i = 0; i < config.nodes; ++i) {
    capacities.push_back(cap_rng.pick(config_.capacity_choices));
  }

  // The fault plan is created before the system (the gossip layer keeps a
  // pointer for per-message fate draws) and wired to it afterwards. Its RNG
  // is a private fork: attaching an all-zero plan (force_attach) perturbs no
  // other stream and schedules no events, so results are byte-identical to
  // running without one - the neutrality the differential test checks.
  if (config.faults.enabled()) {
    faults_ = std::make_unique<sim::FaultPlan>(engine_, config.faults, config.nodes,
                                               static_cast<int>(topo_.link_count()),
                                               rng_.fork("faults"));
  }

  system_ = std::make_unique<core::GridSystem>(engine_, topo_, routing_, landmarks_,
                                               std::move(capacities),
                                               core::make_algorithm(config.algorithm),
                                               build_system_config(config), &metrics_,
                                               faults_.get());

  if (faults_) {
    // Routing repairs FIRST, then the system's transfer aborts, so retried
    // transfers immediately route around the failed link.
    faults_->set_link_handlers(
        [this](LinkId l) {
          routing_.set_link_state(l, false);
          system_->on_link_state(l, false);
        },
        [this](LinkId l) {
          routing_.set_link_state(l, true);
          system_->on_link_state(l, true);
        });
    faults_->set_node_handlers([this](NodeId n) { system_->inject_node_failure(n); },
                               [this](NodeId n) { system_->inject_node_rejoin(n); });
  }
}

int World::home_count() const {
  return config_.dynamic_factor > 0.0 ? system_->config().churn.stable_count : config_.nodes;
}

void World::submit_trace_workload() {
  const TraceConfig& tc = config_.trace;
  TraceWorkload trace = tc.text.empty() ? load_trace(tc.path, tc.format)
                                        : parse_trace_text(tc.text, tc.format);
  if (tc.fitted) {
    const TraceFit fit = fit_trace(trace);
    auto synth_rng = rng_.fork("trace-synth");
    const std::size_t jobs = tc.synth_jobs != 0 ? tc.synth_jobs : trace.jobs.size();
    const double span = tc.synth_span_s > 0.0 ? tc.synth_span_s
                                              : std::max(trace.span_s, 1.0);
    trace = synthesize_trace(fit, jobs, span, synth_rng);
  }
  if (tc.max_jobs != 0 && trace.jobs.size() > tc.max_jobs) trace.jobs.resize(tc.max_jobs);
  if (tc.time_scale <= 0.0) throw std::invalid_argument("World: trace.time_scale must be > 0");
  if (tc.load_mi_per_s <= 0.0) throw std::invalid_argument("World: trace.load_mi_per_s > 0");

  const int homes = home_count();
  const int max_tasks =
      tc.max_tasks_per_job != 0 ? tc.max_tasks_per_job : config_.workflow.max_tasks;
  const int min_tasks = std::clamp(tc.min_tasks_per_job, 1, max_tasks);
  workflow_rng_ = rng_.fork("trace-workload");
  system_->reserve_workflows(trace.jobs.size());
  arrivals_.reserve(trace.jobs.size());
  for (std::size_t k = 0; k < trace.jobs.size(); ++k) {
    const TraceJob& job = trace.jobs[k];
    int h = job.owner % homes;
    if (tc.scatter_owners) {
      // SplitMix64-style avalanche over (owner, id): spreads a small owner
      // pool uniformly over all homes, deterministically.
      std::uint64_t x = static_cast<std::uint64_t>(job.owner) * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(job.id);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      h = static_cast<int>((x ^ (x >> 31)) % static_cast<std::uint64_t>(homes));
    }
    const Arrival a{job.submit_s * tc.time_scale, 0, k, h,
                    std::clamp(job.procs, min_tasks, max_tasks),
                    job.runtime_s * tc.load_mi_per_s};
    if (a.at <= 0.0) {
      system_->submit(NodeId{h}, generate(a));
    } else {
      queue(a);
    }
  }
  start_arrivals();
}

void World::submit_workload() {
  if (submitted_) return;
  submitted_ = true;
  if (config_.trace.enabled()) {
    submit_trace_workload();
    return;
  }
  workflow_rng_ = rng_.fork("workload");
  auto arrival_rng = rng_.fork("arrivals");
  const int homes = home_count();
  const auto total = static_cast<std::size_t>(homes) *
                     static_cast<std::size_t>(config_.workflows_per_node);
  system_->reserve_workflows(total);
  if (config_.bursts.wave_count > 0 || config_.mean_interarrival_s > 0.0) {
    arrivals_.reserve(total);
  }
  for (int h = 0; h < homes; ++h) {
    double next_arrival = 0.0;
    for (int j = 0; j < config_.workflows_per_node; ++j) {
      Arrival a;
      a.key = static_cast<std::uint64_t>(h) * 1000003ULL + static_cast<std::uint64_t>(j);
      a.home = h;
      if (config_.bursts.wave_count > 0) {
        // Flash-crowd model: workflow j joins wave j % wave_count; every wave
        // dumps one workflow per home inside a short window.
        const int wave = j % config_.bursts.wave_count;
        const double open = BurstArrivals::kFirstWaveS + wave * BurstArrivals::kPeriodS;
        a.at = open + arrival_rng.uniform(0.0, BurstArrivals::kWidthS);
        queue(a);
      } else if (config_.mean_interarrival_s <= 0.0) {
        // Closed model (the paper's setting): everything arrives at t = 0.
        system_->submit(NodeId{h}, generate(a));
      } else {
        // Open model: Poisson arrivals per home node.
        next_arrival += arrival_rng.exponential(config_.mean_interarrival_s);
        a.at = next_arrival;
        queue(a);
      }
    }
  }
  start_arrivals();
}

dag::Workflow World::generate(const Arrival& a) const {
  if (config_.trace.enabled()) {
    // The job's shape steers the generated workflow: processor count -> task
    // count, runtime -> per-task load centered on runtime * MI/s with the
    // generator's usual +/- 50% spread. Data volumes keep the configured
    // ranges, so the CCR regime stays a scenario knob.
    dag::GeneratorParams params = config_.workflow;
    params.min_tasks = params.max_tasks = a.tasks;
    params.min_load_mi = std::max(1.0, 0.5 * a.center_mi);
    params.max_load_mi = std::max(params.min_load_mi, 1.5 * a.center_mi);
    auto one_rng = workflow_rng_.fork("job", a.key);
    return dag::generate_workflow(WorkflowId{}, params, one_rng);
  }
  auto one_rng = workflow_rng_.fork("wf", a.key);
  return config_.workload_mix.empty()
             ? dag::generate_workflow(WorkflowId{}, config_.workflow, one_rng)
             : draw_from_mix(config_, one_rng);
}

void World::queue(Arrival a) {
  if (!(a.at >= engine_.now())) throw std::logic_error("World: arrival time in the past or NaN");
  // The seq is taken where an event of its own would have been scheduled, so
  // equal-time ties with every other event keep their order.
  a.seq = engine_.reserve_seq();
  arrivals_.push_back(a);
}

void World::start_arrivals() {
  std::sort(arrivals_.begin(), arrivals_.end(), [](const Arrival& a, const Arrival& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  });
  if (arrivals_.empty()) return;
  engine_.schedule_reserved(arrivals_.front().at, arrivals_.front().seq, [this] { arrive(); });
}

void World::arrive() {
  for (;;) {
    const Arrival& a = arrivals_[next_arrival_++];
    system_->submit(NodeId{a.home}, generate(a));
    if (next_arrival_ == arrivals_.size()) {
      std::vector<Arrival>().swap(arrivals_);
      return;
    }
    const Arrival& next = arrivals_[next_arrival_];
    if (!engine_.take_next(next.at, next.seq)) {
      engine_.schedule_reserved(next.at, next.seq, [this] { arrive(); });
      return;
    }
  }
}

void World::run() {
  submit_workload();
  if (faults_) faults_->start();
  system_->run();
}

}  // namespace dpjit::exp
