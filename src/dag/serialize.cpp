#include "dag/serialize.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dpjit::dag {
namespace {

/// Next content line (comments stripped, blanks skipped); false on EOF.
bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    return true;
  }
  return false;
}

/// Round-trip-exact decimal rendering of a double.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_workflow(std::ostream& os, const Workflow& wf) {
  os << "workflow " << wf.id().get() << '\n';
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex ti{static_cast<TaskIndex::underlying_type>(i)};
    const auto& t = wf.task(ti);
    os << "task " << num(t.load_mi) << ' ' << num(t.image_mb);
    if (const auto name = wf.name(ti); !name.empty()) os << ' ' << name;
    os << '\n';
  }
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex from{static_cast<TaskIndex::underlying_type>(i)};
    for (TaskIndex to : wf.successors(from)) {
      os << "edge " << from.get() << ' ' << to.get() << ' ' << num(wf.edge_data(from, to))
         << '\n';
    }
  }
  os << "end\n";
}

Workflow read_workflow(std::istream& is) {
  std::string line;
  if (!next_line(is, line)) throw std::invalid_argument("read_workflow: empty input");
  std::istringstream head(line);
  std::string keyword;
  long id = -1;
  head >> keyword >> id;
  if (keyword != "workflow" || head.fail()) {
    throw std::invalid_argument("read_workflow: expected 'workflow <id>', got: " + line);
  }
  Workflow wf(WorkflowId{static_cast<WorkflowId::underlying_type>(id)});

  while (next_line(is, line)) {
    std::istringstream ls(line);
    ls >> keyword;
    if (keyword == "task") {
      double load = 0.0;
      double image = 0.0;
      ls >> load >> image;
      if (ls.fail()) throw std::invalid_argument("read_workflow: bad task line: " + line);
      std::string name;
      std::getline(ls, name);
      if (auto first = name.find_first_not_of(' '); first != std::string::npos) {
        name = name.substr(first);
      } else {
        name.clear();
      }
      wf.add_task(load, image, name);
    } else if (keyword == "edge") {
      int from = -1;
      int to = -1;
      double data = 0.0;
      ls >> from >> to >> data;
      if (ls.fail()) throw std::invalid_argument("read_workflow: bad edge line: " + line);
      wf.add_dependency(TaskIndex{from}, TaskIndex{to}, data);
    } else if (keyword == "end") {
      return wf;
    } else {
      throw std::invalid_argument("read_workflow: unknown keyword: " + line);
    }
  }
  throw std::invalid_argument("read_workflow: missing 'end'");
}

void write_workflows(std::ostream& os, const std::vector<Workflow>& wfs) {
  for (const auto& wf : wfs) write_workflow(os, wf);
}

std::vector<Workflow> read_workflows(std::istream& is) {
  std::vector<Workflow> out;
  // Peek for content before attempting another record.
  std::string line;
  while (true) {
    const auto pos = is.tellg();
    if (!next_line(is, line)) break;
    is.seekg(pos);
    out.push_back(read_workflow(is));
  }
  return out;
}

}  // namespace dpjit::dag
