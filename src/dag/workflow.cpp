#include "dag/workflow.hpp"

#include <cassert>
#include <stdexcept>

namespace dpjit::dag {
namespace {

TaskIndex index_of(std::size_t i) { return TaskIndex{static_cast<TaskIndex::underlying_type>(i)}; }

}  // namespace

Workflow::Workflow(const Workflow& other) { *this = other; }

Workflow& Workflow::operator=(const Workflow& other) {
  if (this == &other) return *this;
  other.sync();
  id_ = other.id_;
  edge_count_ = other.edge_count_;
  tasks_ = other.tasks_;
  names_ = other.names_;
  name_end_ = other.name_end_;
  offsets_ = other.offsets_;
  links_ = other.links_;
  succ_data_ = other.succ_data_;
  pending_.reset();
  return *this;
}

void Workflow::reserve(std::size_t tasks, std::size_t edges) {
  tasks_.reserve(tasks);
  name_end_.reserve(tasks);
  if (!pending_) pending_ = std::make_unique<Pending>();
  pending_->edges.reserve(edges);
  pending_->links.reserve(tasks);
}

TaskIndex Workflow::add_task(double load_mi, double image_mb, std::string_view name) {
  if (load_mi < 0.0 || image_mb < 0.0) {
    throw std::invalid_argument("task load/image must be non-negative");
  }
  tasks_.push_back(Task{load_mi, image_mb});
  names_.append(name);
  name_end_.push_back(static_cast<std::uint32_t>(names_.size()));
  return index_of(tasks_.size() - 1);
}

std::size_t Workflow::out_degree(std::size_t t) const {
  std::size_t d = t < frozen_tasks() ? frozen_successors(t).size() : 0;
  if (pending_ && t < pending_->links.size()) d += pending_->links[t].out;
  return d;
}

std::size_t Workflow::in_degree(std::size_t t) const {
  std::size_t d = t < frozen_tasks() ? frozen_predecessors(t).size() : 0;
  if (pending_ && t < pending_->links.size()) d += pending_->links[t].in;
  return d;
}

bool Workflow::has_edge(std::size_t from, std::size_t to) const {
  // Walk whichever endpoint has fewer edges, frozen ones first.
  const bool by_source = out_degree(from) <= in_degree(to);
  const std::size_t owner = by_source ? from : to;
  const TaskIndex other = index_of(by_source ? to : from);
  if (owner < frozen_tasks()) {
    for (TaskIndex t : by_source ? frozen_successors(owner) : frozen_predecessors(owner)) {
      if (t == other) return true;
    }
  }
  if (!pending_ || owner >= pending_->links.size()) return false;
  const auto& links = pending_->links[owner];
  for (std::uint32_t e = by_source ? links.last_out : links.last_in; e != kNone;) {
    const auto& edge = pending_->edges[e];
    if ((by_source ? edge.dep.to : edge.dep.from) == other) return true;
    e = by_source ? edge.prev_out : edge.prev_in;
  }
  return false;
}

void Workflow::add_dependency(TaskIndex from, TaskIndex to, double data_mb) {
  if (!from.valid() || !to.valid() || static_cast<std::size_t>(from.get()) >= tasks_.size() ||
      static_cast<std::size_t>(to.get()) >= tasks_.size()) {
    throw std::out_of_range("dependency endpoint out of range");
  }
  if (from == to) throw std::invalid_argument("self-dependency");
  if (data_mb < 0.0) throw std::invalid_argument("negative edge data");
  const auto f = static_cast<std::size_t>(from.get());
  const auto t = static_cast<std::size_t>(to.get());
  if (has_edge(f, t)) throw std::invalid_argument("duplicate dependency edge");
  if (!pending_) pending_ = std::make_unique<Pending>();
  auto& links = pending_->links;
  if (links.size() < tasks_.size()) links.resize(tasks_.size());
  const auto e = static_cast<std::uint32_t>(pending_->edges.size());
  pending_->edges.push_back(Pending::Edge{Dependency{from, to, data_mb}, links[f].last_out,
                                          links[t].last_in});
  ++links[f].out;
  links[f].last_out = e;
  ++links[t].in;
  links[t].last_in = e;
  ++edge_count_;
}

void Workflow::freeze() const {
  const std::size_t n = tasks_.size();
  const std::size_t old_n = frozen_tasks();
  const std::size_t e = edge_count_;
  std::vector<std::uint32_t> offsets(2 * n + 2, 0);
  std::vector<TaskIndex> links(2 * e + n);
  std::vector<double> data(e);
  std::uint32_t* succ_off = offsets.data();
  std::uint32_t* pred_off = offsets.data() + n + 1;
  const std::vector<Pending::Edge> no_edges;
  const auto& pending = pending_ ? pending_->edges : no_edges;

  // Degrees, then offsets; succ_off[t] / pred_off[t] serve as task t's write
  // cursors while the edges are placed and are shifted back afterwards.
  for (std::size_t t = 0; t < old_n; ++t) {
    succ_off[t + 1] = static_cast<std::uint32_t>(frozen_successors(t).size());
    pred_off[t + 1] = static_cast<std::uint32_t>(frozen_predecessors(t).size());
  }
  for (const auto& p : pending) {
    ++succ_off[p.dep.from.get() + 1];
    ++pred_off[p.dep.to.get() + 1];
  }
  for (std::size_t t = 0; t < n; ++t) {
    succ_off[t + 1] += succ_off[t];
    pred_off[t + 1] += pred_off[t];
  }
  // Every task's frozen edges first, then its pending ones in insertion order.
  for (std::size_t t = 0; t < old_n; ++t) {
    const auto succ = frozen_successors(t);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      data[succ_off[t]] = succ_data_[offsets_[t] + k];
      links[succ_off[t]++] = succ[k];
    }
    for (TaskIndex p : frozen_predecessors(t)) links[e + pred_off[t]++] = p;
  }
  for (const auto& p : pending) {
    const auto from = static_cast<std::size_t>(p.dep.from.get());
    data[succ_off[from]] = p.dep.data_mb;
    links[succ_off[from]++] = p.dep.to;
    links[e + pred_off[p.dep.to.get()]++] = p.dep.from;
  }
  for (std::size_t t = n; t > 0; --t) {
    succ_off[t] = succ_off[t - 1];
    pred_off[t] = pred_off[t - 1];
  }
  succ_off[0] = pred_off[0] = 0;

  // Kahn's sort into the tail of links; the order doubles as its FIFO queue.
  std::vector<std::uint32_t> indeg(n);
  TaskIndex* order = links.data() + 2 * e;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = pred_off[i + 1] - pred_off[i];
    if (indeg[i] == 0) order[count++] = index_of(i);
  }
  for (std::size_t head = 0; head < count; ++head) {
    const auto u = static_cast<std::size_t>(order[head].get());
    for (std::uint32_t k = succ_off[u]; k < succ_off[u + 1]; ++k) {
      if (--indeg[static_cast<std::size_t>(links[k].get())] == 0) order[count++] = links[k];
    }
  }
  links.resize(2 * e + count);  // shorter only when a cycle stranded tasks

  offsets_ = std::move(offsets);
  links_ = std::move(links);
  succ_data_ = std::move(data);
  pending_.reset();
}

const Task& Workflow::task(TaskIndex t) const {
  assert(t.valid() && static_cast<std::size_t>(t.get()) < tasks_.size());
  return tasks_[static_cast<std::size_t>(t.get())];
}

std::string_view Workflow::name(TaskIndex t) const {
  assert(t.valid() && static_cast<std::size_t>(t.get()) < tasks_.size());
  const auto i = static_cast<std::size_t>(t.get());
  const std::uint32_t begin = i == 0 ? 0 : name_end_[i - 1];
  return std::string_view(names_).substr(begin, name_end_[i] - begin);
}

double Workflow::edge_data(TaskIndex from, TaskIndex to) const {
  const auto succ = successors(from);
  for (std::size_t i = 0; i < succ.size(); ++i) {
    if (succ[i] == to) return succ_data_[offsets_[static_cast<std::size_t>(from.get())] + i];
  }
  throw std::out_of_range("no such dependency edge");
}

bool Workflow::is_acyclic() const { return topological_order().size() == tasks_.size(); }

std::vector<TaskIndex> Workflow::entry_tasks() const {
  std::vector<TaskIndex> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (in_degree(i) == 0) out.push_back(index_of(i));
  }
  return out;
}

std::vector<TaskIndex> Workflow::exit_tasks() const {
  std::vector<TaskIndex> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (out_degree(i) == 0) out.push_back(index_of(i));
  }
  return out;
}

void Workflow::normalize() {
  if (tasks_.empty()) return;
  auto entries = entry_tasks();
  if (entries.size() > 1) {
    TaskIndex v = add_task(0.0, 0.0, "virtual-entry");
    for (TaskIndex e : entries) add_dependency(v, e, 0.0);
  }
  auto exits = exit_tasks();
  if (exits.size() > 1) {
    TaskIndex v = add_task(0.0, 0.0, "virtual-exit");
    for (TaskIndex e : exits) add_dependency(e, v, 0.0);
  }
  sync();
}

TaskIndex Workflow::entry() const {
  auto entries = entry_tasks();
  if (entries.size() != 1) throw std::logic_error("workflow does not have a unique entry; call normalize()");
  return entries.front();
}

std::span<const TaskIndex> Workflow::topological_order() const {
  sync();
  const std::size_t skip = 2 * frozen_edges();
  return {links_.data() + skip, links_.size() - skip};
}

double Workflow::total_load_mi() const {
  double sum = 0.0;
  for (const auto& t : tasks_) sum += t.load_mi;
  return sum;
}

std::vector<std::string> Workflow::validate() const {
  std::vector<std::string> issues;
  if (tasks_.empty()) {
    issues.emplace_back("workflow has no tasks");
    return issues;
  }
  const bool acyclic = is_acyclic();
  if (!acyclic) issues.emplace_back("workflow contains a cycle");
  const auto entries = entry_tasks();
  if (entries.size() != 1) issues.emplace_back("workflow does not have a unique entry task");
  if (exit_tasks().size() != 1) issues.emplace_back("workflow does not have a unique exit task");
  // Reachability from the entry set: every task must be on some entry->exit
  // path. Walking predecessors from any task of a DAG ends at an entry, so
  // only a cyclic graph can strand a task.
  if (acyclic) return issues;
  std::vector<char> seen(tasks_.size(), 0);
  std::vector<std::size_t> stack;
  for (TaskIndex e : entries) stack.push_back(static_cast<std::size_t>(e.get()));
  while (!stack.empty()) {
    std::size_t u = stack.back();
    stack.pop_back();
    if (seen[u]) continue;
    seen[u] = 1;
    for (TaskIndex s : successors(index_of(u))) stack.push_back(static_cast<std::size_t>(s.get()));
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!seen[i]) {
      issues.push_back("task " + std::to_string(i) + " unreachable from entry");
    }
  }
  return issues;
}

}  // namespace dpjit::dag
