// Hotspot analysis: where does each scheduling heuristic actually put the
// work? Runs the same workload under two algorithms with tracing enabled and
// compares node-level utilization, hotspot intensity and Jain's fairness -
// the node-level view behind the paper's hotspot-mitigation argument
// (Section III.D).
//
//   ./hotspot_analysis [--scenario=paper/static-n200] [--nodes=48]
//                      [--workflows=3] [--a=dsmf] [--b=dheft]
#include <exception>
#include <iostream>

#include "exp/scenario.hpp"
#include "exp/trace_analysis.hpp"
#include "exp/workload_factory.hpp"
#include "util/config.hpp"

namespace {

dpjit::exp::TraceSummary run_traced(const dpjit::exp::ExperimentConfig& cfg, bool print) {
  dpjit::exp::World world(cfg);
  world.system().trace().enable(true);
  world.run();
  if (print) {
    dpjit::exp::print_trace_report(std::cout, world.system().trace(), cfg.system.horizon_s, 8);
  }
  return dpjit::exp::summarize_trace(world.system().trace(), cfg.system.horizon_s);
}

int run(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);

  // The workload shape comes from a registered scenario (the heavy-tailed and
  // mixed-template scenarios give very different hotspot pictures).
  exp::ExperimentConfig cfg =
      exp::scenario_registry().at(cli.get_string("scenario", "paper/static-n200")).config();
  cfg.nodes = cli.get_int("nodes", 48);
  cfg.workflows_per_node = cli.get_int("workflows", 3);
  cfg.seed = cli.get_int("seed", std::uint64_t{23});

  const std::string algo_a = cli.get_string("a", "dsmf");
  const std::string algo_b = cli.get_string("b", "dheft");

  std::cout << "=== " << algo_a << " ===\n";
  cfg.algorithm = algo_a;
  const auto a = run_traced(cfg, true);

  std::cout << "\n=== " << algo_b << " ===\n";
  cfg.algorithm = algo_b;
  const auto b = run_traced(cfg, true);

  std::cout << "\ncomparison (" << algo_a << " vs " << algo_b << "):\n"
            << "  hotspot utilization: " << a.max_utilization * 100 << "% vs "
            << b.max_utilization * 100 << "%\n"
            << "  busy-time fairness : " << a.busy_fairness << " vs " << b.busy_fairness
            << " (1 = perfectly balanced)\n"
            << "  mean queue wait    : " << a.mean_queue_wait_s << " s vs "
            << b.mean_queue_wait_s << " s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value (--nodes=abc, --hours=-1) exits 1
  // naming the problem.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hotspot_analysis: " << e.what() << "\n";
    return 1;
  }
}
