// Scenario library front-end.
//
//   scenario_runner --list [--json]          enumerate registered scenarios
//   scenario_runner --describe=NAME [--json] full metadata + resolved config
//   scenario_runner --run=NAME [overrides]   run one scenario at full scale
//   scenario_runner --digest [--run=NAME]    conformance digests (golden doc)
//   scenario_runner --figure[=NAME]          list the paper figures, or run one
//
// `--digest` emits the canonical golden-digest document for every registered
// scenario (or just NAME) at the small-n conformance preset — byte-identical
// to tests/scenario/golden_digests.json, so regenerating the goldens is
//
//   ./scenario_runner --digest > tests/scenario/golden_digests.json
//
// Run overrides: --paper (n = 1000), --nodes, --workflows, --seed, --hours
// (exp::apply_cli_overrides, shared with --figure), --algorithm,
// --small (applies the conformance preset before running), and the CCR
// knobs --load=MIN:MAX (task load, MI) / --data=MIN:MAX (edge data, Mb) so
// any scenario sweeps across the Figs. 9-10 regimes without registering
// throwaway variants. `--trace=<file>` swaps a real SWF/GWA job log in for
// the scenario's workload (replacing a trace/* scenario's bundled sample, or
// making any classic scenario trace-driven).
//
// `--shards=N` selects the PDES shard count for sharded (scale/*) scenarios;
// results and digests are byte-identical at every count, which the
// shard-determinism CI job verifies by diffing `--digest --shards=N
// [--threads=M]` output against the goldens for several (N, M). `--threads`
// caps the worker threads driving parallel windows (also results-neutral).
// Classic scenarios always run the serial engine and warn that both flags
// are ignored (see exp::Scenario::sharded).
//
// `--figure=NAME` regenerates one table/figure/ablation of the paper's
// Section IV (exp/figures.hpp) on stdout, e.g. `--figure=fig05 --paper`.
// Figures take the shared overrides above plus their own flags: --seeds and
// --max-load-factor (fig07-10), --algorithm (fig11-14), --reschedule and
// --no-result-collection (fig12-14).
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "exp/figures.hpp"
#include "exp/reporters.hpp"
#include "exp/scale_model.hpp"
#include "exp/scenario.hpp"
#include "net/network_model.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace dpjit;

int list_scenarios(bool as_json) {
  const auto& reg = exp::scenario_registry();
  if (as_json) {
    std::cout << "[\n";
    const auto& all = reg.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      const auto cfg = s.config();
      std::cout << "  {\"name\": \"" << util::json_escape(s.name) << "\",";
      std::cout << " \"tier\": \"" << exp::to_string(s.tier) << "\",";
      std::cout << " \"paper_section\": \"" << util::json_escape(s.paper_section) << "\",";
      std::cout << " \"algorithm\": \"" << util::json_escape(cfg.algorithm) << "\",";
      std::cout << " \"nodes\": " << cfg.nodes << ",";
      std::cout << " \"conformance_nodes\": " << exp::conformance_nodes(cfg.nodes) << ",";
      std::cout << " \"sharded\": " << (s.sharded ? "true" : "false") << ",";
      std::cout << " \"description\": \"" << util::json_escape(s.description) << "\"}";
      std::cout << (i + 1 < all.size() ? "," : "") << "\n";
    }
    std::cout << "]\n";
    return 0;
  }
  util::TablePrinter table(
      {"scenario", "tier", "paper", "algorithm", "nodes", "engine", "description"});
  for (const auto& s : reg.all()) {
    const auto cfg = s.config();
    table.add_row({s.name, std::string(exp::to_string(s.tier)),
                   s.paper_section.empty() ? "-" : s.paper_section, cfg.algorithm,
                   std::to_string(cfg.nodes), s.sharded ? "sharded" : "serial", s.description});
  }
  table.print(std::cout);
  std::cout << "\n"
            << reg.size()
            << " scenarios. Run one: scenario_runner --run=<name>; full metadata: "
               "scenario_runner --describe=<name>\n";
  return 0;
}

/// Full metadata + the resolved full-scale configuration of one scenario, so
/// the docs/EXPERIMENTS.md catalogue can be diffed against the binary truth.
int describe_scenario(const std::string& name, bool as_json) {
  const auto* s = exp::scenario_registry().find(name);
  if (s == nullptr) {
    std::cerr << "scenario_runner: unknown scenario '" << name << "' (try --list)\n";
    return 1;
  }
  const auto cfg = s->config();
  const int conf_nodes = exp::conformance_nodes(cfg.nodes);
  const char* arrivals = "closed-t0";
  if (cfg.trace.enabled()) {
    arrivals = cfg.trace.fitted ? "trace-fitted" : "trace-replay";
  } else if (cfg.bursts.wave_count > 0) {
    arrivals = "burst-waves";
  } else if (cfg.mean_interarrival_s > 0.0) {
    arrivals = "open-poisson";
  }
  // Which transfer model the run simulates, and whether the algorithm reads
  // the live RateOracle or only static estimates - the two axes a reader of
  // a contention/* or quantised/* result needs to know to interpret it. The
  // mode row comes straight from the net::NetworkModel matrix so this listing
  // cannot drift from the engine's actual branch.
  const std::string_view network_model =
      net::network_mode_info(cfg.system.network_mode).name;
  const auto algo = core::make_algorithm(cfg.algorithm);
  const bool ca_suffix = cfg.algorithm.size() > 3 &&
                         cfg.algorithm.compare(cfg.algorithm.size() - 3, 3, "-ca") == 0;
  const char* oracle_path = "static estimates (gossip averages / bandwidth matrix)";
  if (algo.contended_planner) {
    oracle_path = "live RateOracle probes at plan time (batched probe_rates)";
  } else if (ca_suffix) {
    oracle_path = "live RateOracle probes per scheduling cycle (what-if fair-share solves)";
  }
  if (as_json) {
    std::cout << "{\n";
    std::cout << "  \"name\": \"" << util::json_escape(s->name) << "\",\n";
    std::cout << "  \"description\": \"" << util::json_escape(s->description) << "\",\n";
    std::cout << "  \"tier\": \"" << exp::to_string(s->tier) << "\",\n";
    std::cout << "  \"paper_section\": \"" << util::json_escape(s->paper_section) << "\",\n";
    std::cout << "  \"algorithm\": \"" << util::json_escape(cfg.algorithm) << "\",\n";
    std::cout << "  \"nodes\": " << cfg.nodes << ",\n";
    std::cout << "  \"workflows_per_node\": " << cfg.workflows_per_node << ",\n";
    std::cout << "  \"horizon_hours\": " << cfg.system.horizon_s / 3600.0 << ",\n";
    std::cout << "  \"seed\": " << cfg.seed << ",\n";
    std::cout << "  \"network_model\": \"" << network_model << "\",\n";
    std::cout << "  \"oracle_path\": \"" << oracle_path << "\",\n";
    std::cout << "  \"dynamic_factor\": " << cfg.dynamic_factor << ",\n";
    std::cout << "  \"reschedule\": " << (cfg.reschedule ? "true" : "false") << ",\n";
    std::cout << "  \"load_mi\": [" << cfg.workflow.min_load_mi << ", ";
    std::cout << cfg.workflow.max_load_mi << "],\n";
    std::cout << "  \"data_mb\": [" << cfg.workflow.min_data_mb << ", ";
    std::cout << cfg.workflow.max_data_mb << "],\n";
    std::cout << "  \"arrival_process\": \"" << arrivals << "\",\n";
    std::cout << "  \"workload_mix_entries\": " << cfg.workload_mix.size() << ",\n";
    std::cout << "  \"sharded\": " << (s->sharded ? "true" : "false") << ",\n";
    std::cout << "  \"conformance_nodes\": " << conf_nodes << "\n";
    std::cout << "}\n";
    return 0;
  }
  std::cout << "scenario:          " << s->name << "\n";
  std::cout << "description:       " << s->description << "\n";
  std::cout << "tier:              " << exp::to_string(s->tier) << "\n";
  std::cout << "paper section:     " << (s->paper_section.empty() ? "-" : s->paper_section) << "\n";
  std::cout << "algorithm:         " << cfg.algorithm << "\n";
  std::cout << "nodes:             " << cfg.nodes << "\n";
  std::cout << "workflows/node:    " << cfg.workflows_per_node << "\n";
  std::cout << "horizon:           " << cfg.system.horizon_s / 3600.0 << " h\n";
  std::cout << "seed:              " << cfg.seed << "\n";
  std::cout << "network model:     " << network_model << "\n";
  std::cout << "oracle path:       " << oracle_path << "\n";
  std::cout << "dynamic factor:    " << cfg.dynamic_factor << "\n";
  std::cout << "reschedule failed: " << (cfg.reschedule ? "yes" : "no") << "\n";
  std::cout << "task load (MI):    [" << cfg.workflow.min_load_mi << ", ";
  std::cout << cfg.workflow.max_load_mi << "]\n";
  std::cout << "edge data (Mb):    [" << cfg.workflow.min_data_mb << ", ";
  std::cout << cfg.workflow.max_data_mb << "]\n";
  std::cout << "arrival process:   " << arrivals << "\n";
  std::cout << "workload mix:      " << (cfg.workload_mix.empty() ? "random-only" : "mixed");
  std::cout << "\n";
  std::cout << "engine:            "
            << (s->sharded ? "sharded (scale model; accepts --shards)"
                           : "serial (ignores --shards/--threads)")
            << "\n";
  std::cout << "conformance nodes: " << conf_nodes;
  std::cout << " (digest pinned in tests/scenario/golden_digests.json)\n";
  return 0;
}

int emit_digests(const std::string& only, int shards, int threads) {
  const auto& reg = exp::scenario_registry();
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  int serial_only = 0;
  for (const auto& s : reg.all()) {
    if (!only.empty() && s.name != only) continue;
    const int n = exp::conformance_nodes(s.config().nodes);
    std::cerr << "digesting " << s.name << " (n=" << n;
    if (s.sharded && shards > 1) std::cerr << ", shards=" << shards;
    if (s.sharded && threads > 1) std::cerr << ", threads=" << threads;
    std::cerr << ")...\n";
    if (!s.sharded && (shards > 1 || threads > 1)) ++serial_only;
    digests.emplace_back(s.name, exp::conformance_digest(s, shards, threads));
  }
  if (!only.empty() && digests.empty()) {
    std::cerr << "scenario_runner: unknown scenario '" << only << "' (try --list)\n";
    return 1;
  }
  if (serial_only > 0) {
    std::cerr << "scenario_runner: warning: --shards/--threads ignored by " << serial_only
              << " classic scenario(s) (serial engine; digests unaffected)\n";
  }
  exp::write_digest_document(std::cout, digests);
  return 0;
}

/// Runs a scale/* scenario on the sharded engine and reports the aggregate
/// counters plus the shard-invariant scale digest.
int run_scale_scenario(const util::Config& cli, const exp::Scenario& scenario,
                       const exp::ExperimentConfig& cfg, bool as_json) {
  exp::ScaleParams params = exp::scale_params_from_config(cfg);
  params.shards = static_cast<int>(cli.get_int("shards", params.shards));
  params.threads = static_cast<int>(cli.get_int("threads", params.threads));

  std::cerr << "=== " << scenario.name << " ===\n"
            << scenario.description << "\n"
            << "peers=" << params.peers << " shards=" << params.shards
            << " horizon=" << params.horizon_s / 3600.0 << "h seed=" << params.seed << "\n\n";

  const exp::ScaleResult r = exp::run_scale_model(params);
  const std::uint64_t digest = exp::scale_digest(r);

  if (as_json) {
    std::cout << "{\n";
    std::cout << "  \"scenario\": \"" << util::json_escape(scenario.name) << "\",\n";
    std::cout << "  \"peers\": " << r.peers << ",\n";
    std::cout << "  \"regions\": " << r.regions << ",\n";
    std::cout << "  \"shards\": " << r.shards << ",\n";
    std::cout << "  \"window_s\": " << r.window_s << ",\n";
    // +inf at shards=1; JSON has no inf literal, so emit null there.
    if (std::isfinite(r.lookahead_s)) {
      std::cout << "  \"lookahead_s\": " << r.lookahead_s << ",\n";
    } else {
      std::cout << "  \"lookahead_s\": null,\n";
    }
    std::cout << "  \"events_processed\": " << r.events_processed << ",\n";
    std::cout << "  \"windows\": " << r.windows << ",\n";
    std::cout << "  \"parallel_windows\": " << r.parallel_windows << ",\n";
    std::cout << "  \"tasks_completed\": " << r.tasks_completed << ",\n";
    std::cout << "  \"transfers_completed\": " << r.transfers_completed << ",\n";
    std::cout << "  \"mb_transferred\": " << r.mb_transferred << ",\n";
    std::cout << "  \"gossip_sent\": " << r.gossip_sent << ",\n";
    std::cout << "  \"gossip_merged\": " << r.gossip_merged << ",\n";
    std::cout << "  \"churn_departures\": " << r.churn_departures << ",\n";
    std::cout << "  \"churn_rejoins\": " << r.churn_rejoins << ",\n";
    std::cout << "  \"dropped_messages\": " << r.dropped_messages << ",\n";
    std::cout << "  \"wall_s\": " << r.wall_s << ",\n";
    std::cout << "  \"scale_digest\": \"" << digest << "\"\n";
    std::cout << "}\n";
    std::cerr << "scale_digest: " << digest << "\n";
    return 0;
  }
  std::cout << "peers:               " << r.peers << " (" << r.regions << " regions, " << r.shards
            << " shards)\n";
  std::cout << "window / lookahead:  " << r.window_s << " s / " << r.lookahead_s << " s\n";
  std::cout << "events:              " << r.events_processed << " in " << r.windows << " windows ("
            << r.parallel_windows << " parallel)\n";
  std::cout << "tasks completed:     " << r.tasks_completed << "\n";
  std::cout << "transfers completed: " << r.transfers_completed << " (" << r.mb_transferred
            << " MB)\n";
  std::cout << "gossip sent/merged:  " << r.gossip_sent << " / " << r.gossip_merged << "\n";
  std::cout << "churn out/back:      " << r.churn_departures << " / " << r.churn_rejoins << "\n";
  std::cout << "dropped messages:    " << r.dropped_messages << "\n";
  std::cout << "wall clock:          " << r.wall_s << " s\n";
  std::cout << "scale_digest: " << digest << "\n";
  return 0;
}

int run_scenario(const util::Config& cli, const std::string& name, bool as_json) {
  const auto* scenario = exp::scenario_registry().find(name);
  if (scenario == nullptr) {
    std::cerr << "scenario_runner: unknown scenario '" << name << "' (try --list)\n";
    return 1;
  }

  exp::ExperimentConfig cfg = scenario->config();
  if (cli.get_bool("small", false)) cfg = exp::conformance_preset(std::move(cfg));
  cfg.algorithm = cli.get_string("algorithm", cfg.algorithm);
  exp::apply_cli_overrides(cli, cfg);
  // CCR overrides, "MIN:MAX" (e.g. --load=100:10000 --data=10:1000 is the
  // paper's compute-heavy regime).
  const auto parse_range = [](const std::string& spec, const char* flag,
                              double& lo, double& hi) {
    if (spec.empty()) return true;
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
      std::cerr << "scenario_runner: --" << flag << " wants MIN:MAX, got '" << spec << "'\n";
      return false;
    }
    try {
      lo = std::stod(spec.substr(0, colon));
      hi = std::stod(spec.substr(colon + 1));
    } catch (const std::exception&) {
      std::cerr << "scenario_runner: --" << flag << " wants MIN:MAX, got '" << spec << "'\n";
      return false;
    }
    return true;
  };
  double load_lo = cfg.workflow.min_load_mi, load_hi = cfg.workflow.max_load_mi;
  double data_lo = cfg.workflow.min_data_mb, data_hi = cfg.workflow.max_data_mb;
  if (!parse_range(cli.get_string("load", ""), "load", load_lo, load_hi) ||
      !parse_range(cli.get_string("data", ""), "data", data_lo, data_hi)) {
    return 1;
  }
  cfg.set_load_range(load_lo, load_hi);
  cfg.set_data_range(data_lo, data_hi);
  const std::string trace_file = cli.get_string("trace", "");
  if (!trace_file.empty()) {
    // A file trumps any embedded sample; format auto-detects unless the
    // scenario pinned one AND still owns the workload (it no longer does).
    cfg.trace.path = trace_file;
    cfg.trace.text.clear();
    cfg.trace.format = exp::TraceFormat::kAuto;
  }

  if (scenario->sharded) return run_scale_scenario(cli, *scenario, cfg, as_json);

  // Classic scenarios run the serial engine, so a requested count is called
  // out instead of silently dropped (results are identical either way - this
  // is purely a you-asked-for-parallelism-and-did-not-get-it warning).
  if (cli.has("shards") || cli.has("threads")) {
    std::cerr << "scenario_runner: warning: --shards/--threads ignored: scenario '"
              << scenario->name << "' runs on the serial engine (only scale/* scenarios shard)\n";
  }

  std::cerr << "=== " << scenario->name << " ===\n"
            << scenario->description << "\n"
            << "nodes=" << cfg.nodes << " workflows/node=" << cfg.workflows_per_node
            << " algorithm=" << cfg.algorithm << " horizon=" << cfg.system.horizon_s / 3600.0
            << "h seed=" << cfg.seed;
  if (cfg.system.network_mode == net::NetworkMode::kQuantisedFair) {
    std::cerr << " epoch=" << cfg.system.quantised_epoch_s << "s";
  }
  std::cerr << "\n\n";

  const auto result = exp::run_experiment(cfg);

  if (as_json) {
    // Keep stdout pure JSON (the digest goes to stderr with the banner).
    exp::write_results_json(std::cout, {result});
    std::cerr << "result_digest: " << exp::result_digest(result) << "\n";
  } else {
    exp::print_summary_table(std::cout, {result});
    std::cout << "\nthroughput over time:\n";
    exp::print_time_series(std::cout, {result}, "throughput");
    std::cout << "result_digest: " << exp::result_digest(result) << "\n";
  }
  return 0;
}

int list_figures() {
  util::TablePrinter table({"figure", "reproduces"});
  for (const auto& f : exp::figure_table()) table.add_row({f.name, f.title});
  table.print(std::cout);
  std::cout << "\n"
            << exp::figure_table().size()
            << " figures. Run one: scenario_runner --figure=<name> [--paper] [--nodes=N]\n";
  return 0;
}

int run_figure(const util::Config& cli, const std::string& name) {
  if (name.empty()) return list_figures();
  const auto* figure = exp::find_figure(name);
  if (figure == nullptr) {
    std::cerr << "scenario_runner: unknown figure '" << name << "' (try --figure)\n";
    return 1;
  }
  figure->run(cli, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const bool as_json = cli.get_bool("json", false);
  // Accept both --run=NAME and a bare positional scenario name. A bare
  // `--run` flag parses as the value "true" (util::Config flag form); treat
  // it as an empty name so it errors below instead of hunting for a
  // scenario literally called "true".
  std::string name = cli.get_string("run", "");
  if (name == "true") name.clear();
  const bool run_requested = cli.has("run");
  if (name.empty() && !cli.positional().empty()) name = cli.positional().front();

  // Accept --figure=NAME and `--figure NAME`; a bare --figure lists them.
  if (cli.has("figure")) {
    std::string figure = cli.get_string("figure", "");
    if (figure == "true") figure = cli.positional().empty() ? "" : cli.positional().front();
    return run_figure(cli, figure);
  }
  if (cli.get_bool("digest", false)) {
    return emit_digests(name, static_cast<int>(cli.get_int("shards", 1)),
                        static_cast<int>(cli.get_int("threads", 1)));
  }
  // Accept --describe=NAME, `--describe NAME` (positional) and
  // `--describe --run=NAME`.
  std::string describe = cli.get_string("describe", "");
  if (describe == "true") describe = name;  // bare flag: use the name operand
  if (cli.has("describe") && describe.empty()) {
    std::cerr << "scenario_runner: --describe needs a scenario name (try --list)\n";
    return 1;
  }
  if (!describe.empty()) return describe_scenario(describe, as_json);
  // An explicit --run with no usable name must not silently fall through to
  // the list (scripts would read exit 0 as "scenario ran").
  if (run_requested && name.empty()) {
    std::cerr << "scenario_runner: --run needs a scenario name (try --list)\n";
    return 1;
  }
  if (cli.get_bool("list", false) || name.empty()) return list_scenarios(as_json);
  return run_scenario(cli, name, as_json);
}
