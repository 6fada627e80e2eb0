// Montage astronomy mosaicking on a P2P grid.
//
// The paper's motivation: scientific workflows with complex dependencies
// executed on geographically dispersed volunteer resources. This example
// submits Montage-style mosaicking DAGs (projection -> background fit ->
// model -> correction -> co-addition) from several laboratories (home nodes),
// runs the dual-phase DSMF scheduler, and reports per-workflow completion
// and efficiency. It also dumps the first DAG as Graphviz for inspection.
//
//   ./montage_pipeline [--labs=6] [--mosaics=4] [--width=8] [--nodes=96]
#include <exception>
#include <fstream>
#include <iostream>

#include "dag/dot.hpp"
#include "dag/templates.hpp"
#include "exp/metrics.hpp"
#include "exp/workload_factory.hpp"
#include "net/stats.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);
  const int labs = cli.get_int("labs", 6);
  const int mosaics = cli.get_int("mosaics", 4);
  const int width = cli.get_int("width", 8);

  exp::ExperimentConfig cfg;
  cfg.nodes = cli.get_int("nodes", 96);
  cfg.workflows_per_node = 0;  // we submit our own workload below
  cfg.algorithm = cli.get_string("algorithm", "dsmf");
  cfg.seed = cli.get_int("seed", std::uint64_t{42});

  exp::World world(cfg);
  net::print_topology_stats(std::cout, net::topology_stats(world.topology(), world.routing()));
  std::cout << '\n';

  dag::TemplateParams tpl;
  tpl.load_mi = 3000.0;
  tpl.data_mb = 200.0;
  int submitted = 0;
  for (int lab = 0; lab < labs; ++lab) {
    for (int m = 0; m < mosaics; ++m) {
      auto wf = dag::make_montage(WorkflowId{}, width, tpl);
      if (lab == 0 && m == 0) {
        std::ofstream dot("montage.dot");
        dag::write_dot(dot, wf);
        std::cout << "wrote montage.dot (" << wf.task_count() << " tasks, " << wf.edge_count()
                  << " edges)\n";
      }
      world.system().submit(NodeId{lab}, std::move(wf));
      ++submitted;
    }
  }

  world.run();

  const auto& reports = world.metrics().reports();
  std::cout << "\n" << reports.size() << "/" << submitted << " mosaics completed\n\n";
  util::TablePrinter table({"workflow", "home", "completion(s)", "efficiency"});
  for (const auto& r : reports) {
    table.add_row({std::to_string(r.id.get()), std::to_string(r.home.get()),
                   util::TablePrinter::fmt(r.completion_time(), 6),
                   util::TablePrinter::fmt(r.efficiency(), 4)});
  }
  table.print(std::cout);
  std::cout << "\nACT = " << world.metrics().act() << " s, AE = " << world.metrics().ae()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value (--nodes=abc, --hours=-1) exits 1
  // naming the problem.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "montage_pipeline: " << e.what() << "\n";
    return 1;
  }
}
