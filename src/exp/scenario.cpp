#include "exp/scenario.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "exp/sample_trace.hpp"
#include "exp/scale_model.hpp"

namespace dpjit::exp {
namespace {

/// Convenience: wraps a void(ExperimentConfig&) mutator as a pure transform.
template <typename Fn>
std::function<ExperimentConfig(ExperimentConfig)> mutate(Fn fn) {
  return [fn](ExperimentConfig cfg) {
    fn(cfg);
    return cfg;
  };
}

ScenarioRegistry build_registry() {
  ScenarioRegistry reg;

  // --- the paper's environments (Section IV) -------------------------------
  reg.add({"paper/static-n200",
           "Table-I static environment at the bench default scale n=200 (Figs. 4-6 shape)",
           "IV.A", RuntimeTier::kFast, mutate([](ExperimentConfig& c) { c.nodes = 200; })});
  reg.add({"paper/static-n500",
           "Table-I static environment at n=500, the pinned perf-anchor scale (BenchParity)",
           "IV.A", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) { c.nodes = 500; })});
  reg.add({"paper/static-n1000",
           "Table-I static environment at the publication scale n=1000",
           "IV.A", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) { c.nodes = 1000; })});
  for (const auto& [name, df, tier] : {
           std::tuple{"paper/dynamic-df10", 0.1, RuntimeTier::kSlow},
           std::tuple{"paper/dynamic-df20", 0.2, RuntimeTier::kSlow},
           std::tuple{"paper/dynamic-df30", 0.3, RuntimeTier::kSlow},
           std::tuple{"paper/dynamic-df40", 0.4, RuntimeTier::kSlow},
       }) {
    std::ostringstream desc;
    desc << "dynamic environment, dynamic factor " << df
         << " (stable half are homes; Figs. 12-14 shape)";
    const double factor = df;
    reg.add({name, desc.str(), "IV.B", tier,
             mutate([factor](ExperimentConfig& c) { c.dynamic_factor = factor; })});
  }

  // --- the four CCR regimes of Figs. 9-10 ----------------------------------
  reg.add({"ccr/balanced-light",
           "CCR ~ 1.6: light loads 10-1000 MI, light data 10-1000 Mb",
           "IV.B Figs. 9-10", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.set_load_range(10, 1000);
             c.set_data_range(10, 1000);
           })});
  reg.add({"ccr/data-heavy",
           "CCR ~ 16: light loads 10-1000 MI, heavy data 100-10000 Mb (transfer-bound)",
           "IV.B Figs. 9-10", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"ccr/compute-heavy",
           "CCR ~ 0.16: heavy loads 100-10000 MI, light data 10-1000 Mb (the Table-I default)",
           "IV.B Figs. 9-10", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.set_load_range(100, 10000);
             c.set_data_range(10, 1000);
           })});
  reg.add({"ccr/balanced-heavy",
           "CCR ~ 1.6: heavy loads 100-10000 MI, heavy data 100-10000 Mb",
           "IV.B Figs. 9-10", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.set_load_range(100, 10000);
             c.set_data_range(100, 10000);
           })});

  // --- contended network: the fair-sharing ablation ------------------------
  // Permanent end-to-end cover for the fluid max-min transfer stack (the
  // incremental solver, zero-rate guard and batched churn teardown), at the
  // transfer-bound CCR so link contention actually shapes the outcome.
  reg.add({"contention/fair-static",
           "static environment under max-min fair link sharing: data-heavy CCR ~ 16 "
           "(100-10000 Mb) so concurrent transfers genuinely contend",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"contention/fair-churn",
           "fair link sharing under churn (dynamic factor 0.2): node departures mass-abort "
           "contending flows, exercising the batched fluid teardown path",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.dynamic_factor = 0.2;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});

  // --- contention-aware scheduling on the fluid model ----------------------
  // The policies that *consume* the fair-sharing model's live rates (via the
  // TransferManager's what-if probes), pinned end-to-end at the same
  // transfer-bound CCR as the fair-* scenarios so the placement signal the
  // oracle adds is actually load-bearing. Makespan comparisons against
  // static-bandwidth DSMF are recorded in docs/EXPERIMENTS.md.
  reg.add({"contention/aware-static",
           "contention-aware DSMF (dsmf-ca) under max-min fair sharing: placement ranked by "
           "live what-if rate probes of the fluid solver, data-heavy CCR ~ 16",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.algorithm = "dsmf-ca";
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"contention/aware-churn",
           "contention-aware DSMF (dsmf-ca) under fair sharing plus churn (dynamic factor "
           "0.2): oracle probes run against a flow set that mass-teardown keeps shifting",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.algorithm = "dsmf-ca";
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.dynamic_factor = 0.2;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"contention/fullahead-ca",
           "contention-aware full-ahead planning (lookahead-ca) under max-min fair sharing: "
           "plan-time transfer costs come from live oracle probes instead of the static "
           "bandwidth matrix, data-heavy CCR ~ 16",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.algorithm = "lookahead-ca";
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"contention/aware-corrected",
           "transfer-time-corrected second phase (dsmf-tc) under fair sharing at load factor "
           "8: ready sets deep enough that re-ranking by realized input-staging time bites, "
           "data-heavy CCR ~ 16",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.workflows_per_node = 8;
             c.algorithm = "dsmf-tc";
             c.system.network_mode = net::NetworkMode::kFluidFair;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});

  // --- epoch-quantised fair sharing ----------------------------------------
  // The net::NetworkModel seam's third mode (ROADMAP item 1): max-min rates
  // frozen per epoch, re-solved only at barriers, volume advanced lazily once
  // per epoch by the serial barrier loop (TransferManager::run_quantised).
  // Same transfer-bound CCR as the contention/* family so the frozen-rate
  // approximation is actually load-bearing; epochs are set explicitly here
  // (60 s = one gossip-cycle fifth, 300 s = one full cycle) so the barrier
  // schedule does not depend on the topology draw.
  reg.add({"quantised/fair-epoch60",
           "epoch-quantised fair sharing, 60 s epochs: data-heavy CCR ~ 16 so concurrent "
           "transfers contend, rates frozen between barriers, lazily advanced volumes",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.system.network_mode = net::NetworkMode::kQuantisedFair;
             c.system.quantised_epoch_s = 60.0;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"quantised/aware-epoch300",
           "contention-aware DSMF (dsmf-ca) on the quantised model, 300 s epochs: oracle "
           "probes hit the barrier-frozen solver, cached per epoch via the barrier stamp",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.algorithm = "dsmf-ca";
             c.system.network_mode = net::NetworkMode::kQuantisedFair;
             c.system.quantised_epoch_s = 300.0;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});
  reg.add({"quantised/churn-epoch60",
           "quantised fair sharing under churn (dynamic factor 0.2): mid-epoch mass aborts "
           "race drain delivery - flows aborted after draining are never delivered",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.system.network_mode = net::NetworkMode::kQuantisedFair;
             c.system.quantised_epoch_s = 60.0;
             c.dynamic_factor = 0.2;
             c.set_load_range(10, 1000);
             c.set_data_range(100, 10000);
           })});

  // --- extension workloads beyond the paper --------------------------------
  reg.add({"open/poisson-arrivals",
           "open model: each home submits 4 workflows with exponential inter-arrivals "
           "(mean 1 h) instead of everything at t=0",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.workflows_per_node = 4;
             c.mean_interarrival_s = 3600.0;
           })});
  reg.add({"burst/flash-crowd",
           "flash crowd: 3 submission waves 4 h apart, each dumping one workflow per home "
           "inside a 15-minute window",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.workflows_per_node = 6;
             c.bursts.wave_count = 3;
           })});
  reg.add({"tail/heavy-tailed-loads",
           "heavy-tailed task sizes over the Table-I ranges: lognormal loads (sigma 1.2), "
           "Pareto dependent data (alpha 1.5) - most tasks small, a few enormous",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.workflow.load_distribution = dag::SizeDistribution::kLogNormal;
             c.workflow.load_tail_shape = 1.2;
             c.workflow.data_distribution = dag::SizeDistribution::kPareto;
             c.workflow.data_tail_shape = 1.5;
           })});
  reg.add({"churn/correlated-waves",
           "correlated churn: base dynamic factor 0.1, every 4th interval a departure wave "
           "takes out 3x the usual count at once; rejoins recover at the base rate",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.dynamic_factor = 0.1;
             c.system.churn.wave_every = 4;
             c.system.churn.wave_multiplier = 3.0;
           })});
  // --- sharded scale family (ROADMAP item 1) -------------------------------
  // These run exp::run_scale_model on the conservative time-window engine
  // (sim::ShardEngine) instead of the full GridSystem world: O(1)-state peers
  // over a routed region backbone, so 10^5-10^6 peers are reachable and the
  // run accepts a shard count with byte-identical digests at every count.
  reg.add({"scale/peers-100k",
           "10^5-peer sharded scale model: push-pull gossip, task execution and bulk "
           "transfers over a 64-region backbone, 1 h horizon",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 100000;
             c.system.horizon_s = 3600.0;
           }),
           /*sharded=*/true});
  reg.add({"scale/peers-churn-100k",
           "10^5-peer scale model under churn (dynamic factor 0.2): departures notify "
           "contacts cross-shard, in-flight work at departed peers is dropped",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 100000;
             c.system.horizon_s = 3600.0;
             c.dynamic_factor = 0.2;
           }),
           /*sharded=*/true});
  reg.add({"scale/million-node",
           "10^6-peer scale model, 30 min horizon with a 10-minute scheduling period: the "
           "nightly-CI scale point (expect minutes of wall clock and ~1 GB of memory)",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 1000000;
             c.system.horizon_s = 1800.0;
             c.system.scheduling_interval_s = 600.0;
           }),
           /*sharded=*/true});

  // --- realism: deterministic fault injection (ROADMAP item 5) -------------
  // The idealized counterparts of these runs deliver every gossip exchange
  // atomically and give every node oracular membership. Here the gossip runs
  // message-by-message (SYNC/ACK1/ACK2) against a seeded sim::FaultPlan, and
  // membership is SWIM-style suspicion. Idealized-vs-realistic deltas are
  // recorded in docs/EXPERIMENTS.md.
  reg.add({"realism/lossy-gossip",
           "message-level gossip under a lossy network: 10% loss, 5% duplication, 20% of "
           "messages delayed up to 60 s; SWIM suspicion replaces oracular membership",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.system.gossip.message_level = true;
             c.faults.msg_loss_p = 0.10;
             c.faults.msg_dup_p = 0.05;
             c.faults.msg_delay_p = 0.20;
             c.faults.msg_delay_max_s = 60.0;
           })});
  reg.add({"realism/link-waves",
           "link failure/recovery waves on the idealized gossip: every hour 5% of up links "
           "fail (10% permanently, rest recover after 15 min); routing repairs "
           "incrementally, severed transfers retry with exponential backoff",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.faults.link_wave_period_s = 3600.0;
             c.faults.link_first_wave_s = 1800.0;
             c.faults.link_fail_fraction = 0.05;
             c.faults.link_downtime_s = 900.0;
             c.faults.link_permanent_p = 0.10;
             c.system.transfer_retry.max_attempts = 5;
           })});
  reg.add({"realism/suspicion-churn",
           "SWIM suspicion under churn (dynamic factor 0.2) on a 10%-lossy network: false "
           "suspicions pull dispatched tasks back (re-offer), true deaths are detected "
           "without the oracle",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.dynamic_factor = 0.2;
             c.system.gossip.message_level = true;
             c.faults.msg_loss_p = 0.10;
           })});
  reg.add({"realism/crash-recovery",
           "node crash/restart waves on message-level gossip: every hour 10% of eligible "
           "nodes crash and restart after 20 min; the stable half (homes) is exempt, "
           "severed transfers retry with backoff",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.dynamic_factor = 0.1;
             c.system.gossip.message_level = true;
             c.faults.crash_period_s = 3600.0;
             c.faults.crash_first_s = 1800.0;
             c.faults.crash_fraction = 0.10;
             c.faults.crash_restart_s = 1200.0;
             c.faults.crash_exempt_fraction = 0.5;
             c.system.transfer_retry.max_attempts = 4;
           })});

  // --- trace-driven workloads (ROADMAP item 2) -----------------------------
  // Jobs come from imported SWF/GWA logs instead of the synthetic arrival
  // models: either replayed one-for-one (arrival times, per-owner homes,
  // processor counts and runtimes straight from the trace) or refitted
  // (Weibull interarrivals, lognormal runtimes, empirical owner/size
  // weights) and synthesized at any scale. The samples are embedded string
  // constants (transforms must be pure — no file reads); scenario_runner
  // --trace=<file> swaps in a real archive log. The conformance preset caps
  // trace.max_jobs so these digest-check at sub-second scale like everything
  // else; the heavy-traffic full scale runs in the trace tier
  // (OpenStreamFullScale), which asserts the streaming collector's O(1)-memory
  // bound while the open stream passes a million tasks, and in perfbench.
  reg.add({"trace/gwa-replay",
           "direct replay of the bundled GWA sample log: per-owner home placement, task "
           "counts from allocated processors, task loads from recorded runtimes",
           "", RuntimeTier::kFast, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.trace.text = std::string(sample_gwa_trace());
             c.trace.format = TraceFormat::kGwa;
           })});
  reg.add({"trace/fitted-burst",
           "fitted replay of the bundled SWF sample compressed into a 4 h burst: Weibull "
           "interarrivals and lognormal runtimes refitted, 600 synthetic jobs, streaming "
           "O(1)-memory metrics",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.trace.text = std::string(sample_swf_trace());
             c.trace.fitted = true;
             c.trace.synth_jobs = 600;
             c.trace.synth_span_s = 4.0 * 3600.0;
             c.streaming_metrics = true;
           })});
  reg.add({"trace/open-stream-1m",
           "heavy-traffic open stream fitted from the SWF sample: 125k synthetic jobs of "
           ">= 8 tasks (a million-task arrival stream) scattered over all homes, streaming "
           "metrics holding a bounded report set - the perfbench open-stream-1m workload",
           "", RuntimeTier::kSlow, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.trace.text = std::string(sample_swf_trace());
             c.trace.fitted = true;
             c.trace.synth_jobs = 125000;
             c.trace.synth_span_s = 0.8 * c.system.horizon_s;
             c.trace.min_tasks_per_job = 8;
             c.trace.scatter_owners = true;
             c.streaming_metrics = true;
           })});

  reg.add({"mixed/multi-template",
           "mixed structured workload: random DAGs plus Montage, fork-join, pipeline and "
           "diamond templates drawn from a weighted mix",
           "", RuntimeTier::kMedium, mutate([](ExperimentConfig& c) {
             c.nodes = 200;
             c.workload_mix = {
                 {"random", 2.0, 0},
                 {"montage", 1.0, 6},
                 {"fork-join", 1.0, 4},
                 {"pipeline", 1.0, 6},
                 {"diamond", 0.5, 0},
             };
           })});

  return reg;
}

}  // namespace

std::string_view to_string(RuntimeTier tier) {
  switch (tier) {
    case RuntimeTier::kFast: return "fast";
    case RuntimeTier::kMedium: return "medium";
    case RuntimeTier::kSlow: return "slow";
  }
  return "unknown";
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) throw std::invalid_argument("ScenarioRegistry: empty name");
  if (!scenario.transform) {
    throw std::invalid_argument("ScenarioRegistry: scenario '" + scenario.name +
                                "' has no transform");
  }
  const auto pos = std::lower_bound(
      scenarios_.begin(), scenarios_.end(), scenario.name,
      [](const Scenario& s, const std::string& name) { return s.name < name; });
  if (pos != scenarios_.end() && pos->name == scenario.name) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" + scenario.name + "'");
  }
  scenarios_.insert(pos, std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  const auto pos = std::lower_bound(
      scenarios_.begin(), scenarios_.end(), name,
      [](const Scenario& s, std::string_view n) { return s.name < n; });
  return pos != scenarios_.end() && pos->name == name ? &*pos : nullptr;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
  if (const Scenario* s = find(name)) return *s;
  std::string msg = "unknown scenario '" + std::string(name) + "'; known:";
  for (const auto& s : scenarios_) msg += " " + s.name;
  throw std::out_of_range(msg);
}

std::vector<const Scenario*> ScenarioRegistry::family(std::string_view prefix) const {
  std::vector<const Scenario*> out;
  for (const auto& s : scenarios_) {
    if (std::string_view(s.name).substr(0, prefix.size()) == prefix) out.push_back(&s);
  }
  return out;
}

const ScenarioRegistry& scenario_registry() {
  static const ScenarioRegistry registry = build_registry();
  return registry;
}

int conformance_nodes(int full_nodes) {
  return std::clamp(full_nodes / 10, kConformanceMinNodes, kConformanceMaxNodes);
}

ExperimentConfig conformance_preset(ExperimentConfig cfg) {
  cfg.nodes = conformance_nodes(cfg.nodes);
  // One routing thread: determinism holds at any count (tested), but the
  // conformance tier runs many scenarios under `ctest -j` and must not nest
  // full-width pools.
  cfg.routing_threads = 1;
  if (cfg.trace.enabled()) {
    // Trace scenarios scale with their job count, not just the node count:
    // cap the stream at the classic tier's workload (3 jobs per conformance
    // node) so a 125k-job open stream digest-checks in sub-seconds too.
    const auto cap = static_cast<std::size_t>(cfg.nodes) * 3;
    cfg.trace.max_jobs = cfg.trace.max_jobs == 0 ? cap : std::min(cfg.trace.max_jobs, cap);
    if (cfg.trace.synth_jobs > cap) cfg.trace.synth_jobs = cap;
  }
  return cfg;
}

std::uint64_t conformance_digest(const Scenario& scenario, int shards, int threads) {
  ExperimentConfig cfg = conformance_preset(scenario.config());
  if (scenario.sharded) {
    ScaleParams params = scale_params_from_config(cfg);
    params.shards = shards;
    params.threads = threads;
    return scale_digest(run_scale_model(params));
  }
  // Classic scenarios run the serial engine whatever `shards` says — see
  // Scenario::sharded.
  return result_digest(run_experiment(cfg));
}

void write_digest_document(std::ostream& os,
                           const std::vector<std::pair<std::string, std::uint64_t>>& digests) {
  auto sorted = digests;
  std::sort(sorted.begin(), sorted.end());
  os << "{\n";
  os << "  \"schema\": \"dpjit-scenario-digests-v1\",\n";
  os << "  \"preset\": \"nodes=clamp(full/10," << kConformanceMinNodes << ","
     << kConformanceMaxNodes << ") routing_threads=1 trace_jobs<=3*nodes\",\n";
  os << "  \"digests\": {\n";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    os << "    \"" << sorted[i].first << "\": \"" << sorted[i].second << "\""
       << (i + 1 < sorted.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
}

std::map<std::string, std::uint64_t> parse_digest_document(std::istream& is) {
  // Line-based parser for the canonical document write_digest_document emits.
  // Deliberately strict: anything hand-mangled should fail, not half-parse.
  std::map<std::string, std::uint64_t> out;
  std::string line;
  bool saw_schema = false;
  bool in_digests = false;
  while (std::getline(is, line)) {
    if (line.find("\"dpjit-scenario-digests-v1\"") != std::string::npos) saw_schema = true;
    if (line.find("\"digests\"") != std::string::npos) {
      in_digests = true;
      continue;
    }
    if (!in_digests) continue;
    if (line.find('}') != std::string::npos && line.find(':') == std::string::npos) break;
    // Expected shape:   "name": "digest"[,]
    const auto q1 = line.find('"');
    const auto q2 = line.find('"', q1 + 1);
    const auto q3 = line.find('"', q2 + 1);
    const auto q4 = line.find('"', q3 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos || q3 == std::string::npos ||
        q4 == std::string::npos) {
      throw std::runtime_error("golden digest document: malformed line: " + line);
    }
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const std::string value = line.substr(q3 + 1, q4 - q3 - 1);
    std::uint64_t digest = 0;
    try {
      std::size_t consumed = 0;
      digest = std::stoull(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw std::runtime_error("golden digest document: bad digest for " + name);
    }
    if (!out.emplace(name, digest).second) {
      throw std::runtime_error("golden digest document: duplicate scenario " + name);
    }
  }
  if (!saw_schema) throw std::runtime_error("golden digest document: missing/unknown schema");
  return out;
}

}  // namespace dpjit::exp
