#include "core/algorithm.hpp"

#include <stdexcept>

namespace dpjit::core {
namespace {

using enum FirstPhase;
using enum PlanOrder;
using enum Placement;

// clang-format off
constexpr Algorithm kAlgorithms[] = {
    // name            first phase        contended  ready    plan order        placement
    // The eight algorithms of the paper's figures, in legend order.
    {"dheft",          kRpm,              false,     "lrpm"},
    {"heft",           kFullAhead,        false,     "fcfs",  kGlobalRank,      kEarliestFinish},
    {"maxmin",         kMaxMin,           false,     "ltf"},
    {"minmin",         kMinMin,           false,     "stf"},
    {"dsdf",           kSlack,            false,     "slack"},
    {"sufferage",      kSufferage,        false,     "lsf"},
    {"dsmf",           kMakespanThenRpm,  false,     "dsmf"},
    {"smf",            kFullAhead,        false,     "fcfs",  kMakespanBatches, kEarliestFinish},
    // Second-phase ablation: the same first phases over an FCFS ready set.
    {"dsmf-fcfs",      kMakespanThenRpm,  false,     "fcfs"},
    {"dheft-fcfs",     kRpm,              false,     "fcfs"},
    {"minmin-fcfs",    kMinMin,           false,     "fcfs"},
    {"maxmin-fcfs",    kMaxMin,           false,     "fcfs"},
    {"sufferage-fcfs", kSufferage,        false,     "fcfs"},
    // Extensions.
    {"heft-la",        kFullAhead,        false,     "fcfs",  kGlobalRank,      kLookahead},
    {"dsmf-ca",        kMakespanThenRpm,  true,      "dsmf"},
    {"dsmf-tc",        kMakespanThenRpm,  false,     "tcms"},
    {"dheft-ca",       kRpm,              true,      "lrpm"},
    {"lookahead-ca",   kFullAhead,        true,      "fcfs",  kGlobalRank,      kLookahead},
};
// clang-format on
constexpr std::size_t kPaperAlgorithmCount = 8;

bool fcfs_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  return a.arrival_seq < b.arrival_seq;
}

bool dsmf_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  // Formula (10): smallest workflow remaining makespan; Algorithm 2 lines 3-5:
  // ties broken by the longest RPM.
  if (a.wf_makespan != b.wf_makespan) return a.wf_makespan < b.wf_makespan;
  if (a.rpm != b.rpm) return a.rpm > b.rpm;
  return fcfs_better(a, b);
}

bool lrpm_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  if (a.rpm != b.rpm) return a.rpm > b.rpm;
  return fcfs_better(a, b);
}

bool slack_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  if (a.slack != b.slack) return a.slack < b.slack;
  return fcfs_better(a, b);
}

bool stf_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  if (a.load_mi != b.load_mi) return a.load_mi < b.load_mi;
  return fcfs_better(a, b);
}

bool ltf_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  if (a.load_mi != b.load_mi) return a.load_mi > b.load_mi;
  return fcfs_better(a, b);
}

bool lsf_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  if (a.sufferage != b.sufferage) return a.sufferage > b.sufferage;
  return fcfs_better(a, b);
}

bool tcms_better(const grid::ReadyTask& a, const grid::ReadyTask& b) {
  // Transfer-time-corrected DSMF order: the makespan stamped at dispatch
  // priced the input transfers at believed averages; by the time a task is
  // runnable the *realized* input-staging time (data_ready_at - arrived_at)
  // is known, so that much of the stamped remaining makespan has already
  // been paid down. Ranking by the corrected value favors the workflow that
  // is genuinely closest to done - a workflow whose inputs crawled through a
  // contended path no longer shadows one that staged instantly.
  const double ca = a.wf_makespan - (a.data_ready_at - a.arrived_at);
  const double cb = b.wf_makespan - (b.data_ready_at - b.arrived_at);
  if (ca != cb) return ca < cb;
  if (a.rpm != b.rpm) return a.rpm > b.rpm;
  return fcfs_better(a, b);
}

struct NamedComparator {
  std::string_view name;
  ReadyComparator better;
};

constexpr NamedComparator kComparators[] = {
    {"dsmf", dsmf_better}, {"lrpm", lrpm_better}, {"slack", slack_better},
    {"stf", stf_better},   {"ltf", ltf_better},   {"lsf", lsf_better},
    {"fcfs", fcfs_better}, {"tcms", tcms_better},
};

}  // namespace

Algorithm make_algorithm(std::string_view name) {
  for (const Algorithm& a : kAlgorithms) {
    if (a.name == name) return a;
  }
  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

std::vector<std::string> paper_algorithms() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kPaperAlgorithmCount; ++i) names.emplace_back(kAlgorithms[i].name);
  return names;
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names;
  for (const Algorithm& a : kAlgorithms) names.emplace_back(a.name);
  return names;
}

ReadyComparator ready_comparator(std::string_view name) {
  for (const NamedComparator& c : kComparators) {
    if (c.name == name) return c.better;
  }
  throw std::invalid_argument("unknown ready comparator: " + std::string(name));
}

std::vector<std::string_view> ready_comparator_names() {
  std::vector<std::string_view> names;
  for (const NamedComparator& c : kComparators) names.push_back(c.name);
  return names;
}

std::size_t select_ready(ReadyComparator better,
                         const std::vector<const grid::ReadyTask*>& candidates) {
  if (candidates.empty()) throw std::logic_error("select_ready: empty candidates");
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (better(*candidates[i], *candidates[best])) best = i;
  }
  return best;
}

}  // namespace dpjit::core
