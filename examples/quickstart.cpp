// Quickstart: build a small P2P grid, submit a handful of random scientific
// workflows, schedule them with DSMF and print what happened.
//
//   ./quickstart [--scenario=paper/static-n200] [--nodes=64] [--workflows=3]
//                [--algorithm=dsmf] [--seed=7]
#include <exception>
#include <iostream>

#include "exp/reporters.hpp"
#include "exp/scenario.hpp"
#include "util/config.hpp"

namespace {

int run(int argc, char** argv) {
  const auto cli = dpjit::util::Config::from_args(argc, argv);

  // Start from a registered scenario (see `scenario_runner --list`), then
  // shrink to an interactive scale.
  const auto scenario = cli.get_string("scenario", "paper/static-n200");
  dpjit::exp::ExperimentConfig cfg = dpjit::exp::scenario_registry().at(scenario).config();
  cfg.nodes = cli.get_int("nodes", 64);
  cfg.workflows_per_node = cli.get_int("workflows", 3);
  cfg.algorithm = cli.get_string("algorithm", "dsmf");
  cfg.seed = cli.get_int("seed", std::uint64_t{7});
  cfg.system.horizon_s = cli.get_double("hours", 36.0) * 3600.0;

  std::cout << "dpjit quickstart (" << scenario << "): " << cfg.nodes << " peers, "
            << cfg.workflows_per_node << " workflows per node, algorithm=" << cfg.algorithm
            << "\n\n";

  const auto result = dpjit::exp::run_experiment(cfg);

  std::cout << "finished " << result.workflows_finished << "/" << result.workflows_submitted
            << " workflows\n"
            << "  average completion time (ACT, Eq.2): " << result.act << " s\n"
            << "  average efficiency     (AE,  Eq.3): " << result.ae << "\n"
            << "  mean response time               : " << result.mean_response << " s\n"
            << "  gossip messages sent             : " << result.gossip_messages << "\n"
            << "  events processed                 : " << result.events_processed << "\n\n";

  std::cout << "throughput over time (workflows finished by hour):\n";
  dpjit::exp::print_time_series(std::cout, {result}, "throughput");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value (--nodes=abc, --hours=-1) exits 1
  // naming the problem.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 1;
  }
}
