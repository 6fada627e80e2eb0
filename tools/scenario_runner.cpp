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
// --no-result-collection (fig12-14); every figure accepts all of them.
//
// A flag that the chosen command never reads (a typo such as --nodez, or
// --small on --digest) is an error: the runner names it and exits 1 before
// running anything, instead of silently running the defaults.
#include <array>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
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

/// The flags the figure drivers read (exp/figures.cpp).
constexpr std::array<std::string_view, 10> kFigureFlags = {
    "paper", "nodes", "workflows", "seed", "hours",
    "seeds", "max-load-factor", "algorithm", "reschedule", "no-result-collection"};

/// Names every command-line key that nothing read so far; true when any.
bool reject_unread_flags(const util::Config& cli) {
  const auto unread = cli.unused_keys();
  for (const auto& key : unread) {
    std::cerr << "scenario_runner: unknown option --" << key << " (not read by this command)\n";
  }
  return !unread.empty();
}

int list_scenarios(bool as_json) {
  const auto& reg = exp::scenario_registry();
  if (as_json) {
    util::JsonWriter json(std::cout);
    json.begin_array();
    for (const auto& s : reg.all()) {
      const auto cfg = s.config();
      json.begin_object()
          .kv("name", s.name)
          .kv("tier", exp::to_string(s.tier))
          .kv("paper_section", s.paper_section)
          .kv("algorithm", cfg.algorithm)
          .kv("nodes", std::int64_t{cfg.nodes})
          .kv("conformance_nodes", std::int64_t{exp::conformance_nodes(cfg.nodes)})
          .kv("sharded", s.sharded)
          .kv("description", s.description)
          .end_object();
    }
    json.end_array();
    std::cout << "\n";
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
  // the live-rate oracle or only static estimates - the two axes a reader of
  // a contention/* or quantised/* result needs to know to interpret it. The
  // mode is the one the engine resolves (effective_network_mode), so this
  // listing cannot drift from the engine's actual branch.
  const std::string_view network_model = net::network_mode_name(cfg.effective_network_mode());
  const auto algo = core::make_algorithm(cfg.algorithm);
  const char* oracle_path = "static estimates (gossip averages / bandwidth matrix)";
  if (algo.contended) {
    oracle_path =
        algo.full_ahead()
            ? "live expected_transfer_time_s probes at plan time, one per (src, dst) pair"
            : "live expected_transfer_time_s probes per scheduling cycle (what-if fair-share "
              "solves)";
  }
  if (as_json) {
    util::JsonWriter json(std::cout);
    json.begin_object()
        .kv("name", s->name)
        .kv("description", s->description)
        .kv("tier", exp::to_string(s->tier))
        .kv("paper_section", s->paper_section)
        .kv("algorithm", cfg.algorithm)
        .kv("nodes", std::int64_t{cfg.nodes})
        .kv("workflows_per_node", std::int64_t{cfg.workflows_per_node})
        .kv("horizon_hours", cfg.system.horizon_s / 3600.0)
        .kv("seed", cfg.seed)
        .kv("network_model", network_model)
        .kv("oracle_path", oracle_path)
        .kv("dynamic_factor", cfg.dynamic_factor)
        .kv("reschedule", cfg.reschedule);
    json.key("load_mi").begin_array().value(cfg.workflow.min_load_mi);
    json.value(cfg.workflow.max_load_mi).end_array();
    json.key("data_mb").begin_array().value(cfg.workflow.min_data_mb);
    json.value(cfg.workflow.max_data_mb).end_array();
    json.kv("arrival_process", arrivals)
        .kv("workload_mix_entries", std::uint64_t{cfg.workload_mix.size()})
        .kv("sharded", s->sharded)
        .kv("conformance_nodes", std::int64_t{conf_nodes})
        .end_object();
    std::cout << "\n";
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
  params.shards = cli.get_int("shards", params.shards);
  params.threads = cli.get_int("threads", params.threads);

  std::cerr << "=== " << scenario.name << " ===\n"
            << scenario.description << "\n"
            << "peers=" << params.peers << " shards=" << params.shards
            << " horizon=" << params.horizon_s / 3600.0 << "h seed=" << params.seed << "\n\n";

  const exp::ScaleResult r = exp::run_scale_model(params);
  const std::uint64_t digest = exp::scale_digest(r);

  if (as_json) {
    util::JsonWriter json(std::cout);
    json.begin_object()
        .kv("scenario", scenario.name)
        .kv("peers", std::int64_t{r.peers})
        .kv("regions", std::int64_t{r.regions})
        .kv("shards", std::int64_t{r.shards})
        .kv("window_s", r.window_s)
        .kv("events_processed", r.events_processed)
        .kv("windows", r.windows)
        .kv("parallel_windows", r.parallel_windows)
        .kv("pending_max", r.pending_max)
        .kv("tasks_completed", r.tasks_completed)
        .kv("transfers_completed", r.transfers_completed)
        .kv("mb_transferred", r.mb_transferred)
        .kv("gossip_sent", r.gossip_sent)
        .kv("gossip_merged", r.gossip_merged)
        .kv("churn_departures", r.churn_departures)
        .kv("churn_rejoins", r.churn_rejoins)
        .kv("dropped_messages", r.dropped_messages)
        .kv("wall_s", r.wall_s)
        .kv("scale_digest", std::to_string(digest))
        .end_object();
    std::cout << "\n";
    std::cerr << "scale_digest: " << digest << "\n";
    return 0;
  }
  std::cout << "peers:               " << r.peers << " (" << r.regions << " regions, " << r.shards
            << " shards)\n";
  std::cout << "window:              " << r.window_s << " s\n";
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
    // Each token must be a number as a whole ("100x" is not 100).
    const auto number = [](const std::string& text, double& out) {
      std::size_t used = 0;
      try {
        out = std::stod(text, &used);
      } catch (const std::exception&) {
        return false;
      }
      return used == text.size();
    };
    const auto colon = spec.find(':');
    if (colon != std::string::npos && number(spec.substr(0, colon), lo) &&
        number(spec.substr(colon + 1), hi)) {
      return true;
    }
    std::cerr << "scenario_runner: --" << flag << " wants MIN:MAX, got '" << spec << "'\n";
    return false;
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

  // Both are asked (no short circuit), so both count as read.
  const bool shards_set = cli.has("shards");
  const bool threads_set = cli.has("threads");
  if (reject_unread_flags(cli)) return 1;

  if (scenario->sharded) return run_scale_scenario(cli, *scenario, cfg, as_json);

  // Classic scenarios run the serial engine, so a requested count is called
  // out instead of silently dropped (results are identical either way - this
  // is purely a you-asked-for-parallelism-and-did-not-get-it warning).
  if (shards_set || threads_set) {
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

int run_cli(int argc, char** argv) {
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
    for (const auto flag : kFigureFlags) (void)cli.has(flag);
    if (reject_unread_flags(cli)) return 1;
    return run_figure(cli, figure);
  }
  if (cli.get_bool("digest", false)) {
    const int shards = cli.get_int("shards", 1);
    const int threads = cli.get_int("threads", 1);
    if (reject_unread_flags(cli)) return 1;
    return emit_digests(name, shards, threads);
  }
  // Accept --describe=NAME, `--describe NAME` (positional) and
  // `--describe --run=NAME`.
  std::string describe = cli.get_string("describe", "");
  if (describe == "true") describe = name;  // bare flag: use the name operand
  if (cli.has("describe") && describe.empty()) {
    std::cerr << "scenario_runner: --describe needs a scenario name (try --list)\n";
    return 1;
  }
  if (!describe.empty()) {
    if (reject_unread_flags(cli)) return 1;
    return describe_scenario(describe, as_json);
  }
  // An explicit --run with no usable name must not silently fall through to
  // the list (scripts would read exit 0 as "scenario ran").
  if (run_requested && name.empty()) {
    std::cerr << "scenario_runner: --run needs a scenario name (try --list)\n";
    return 1;
  }
  if (cli.get_bool("list", false) || name.empty()) {
    if (reject_unread_flags(cli)) return 1;
    return list_scenarios(as_json);
  }
  return run_scenario(cli, name, as_json);
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value (--nodes=abc, --hours=-1, --nodes=0)
  // exits 1 naming the problem, like an unknown flag.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "scenario_runner: " << e.what() << "\n";
    return 1;
  }
}
