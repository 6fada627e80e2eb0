#include "dag/dot.hpp"

#include <cstdio>

namespace dpjit::dag {

void write_dot(std::ostream& os, const Workflow& wf) {
  os << "digraph wf" << wf.id().get() << " {\n";
  os << "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  char buf[128];
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    const auto& task = wf.task(t);
    const std::string_view name = wf.name(t);
    if (!name.empty()) {
      std::snprintf(buf, sizeof(buf), "  t%zu [label=\"%.*s\\n%.0f MI\"];\n", i,
                    static_cast<int>(name.size()), name.data(), task.load_mi);
    } else {
      std::snprintf(buf, sizeof(buf), "  t%zu [label=\"t%zu\\n%.0f MI\"];\n", i, i, task.load_mi);
    }
    os << buf;
  }
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    for (TaskIndex s : wf.successors(t)) {
      std::snprintf(buf, sizeof(buf), "  t%zu -> t%d [label=\"%.0f Mb\"];\n", i, s.get(),
                    wf.edge_data(t, s));
      os << buf;
    }
  }
  os << "}\n";
}

}  // namespace dpjit::dag
