#include "grid/grid_node.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dpjit::grid {
namespace {

constexpr std::size_t kMinIndexSize = 16;

bool queued(const ReadyTask& t) { return t.ref.workflow.valid(); }

}  // namespace

GridNode::GridNode(NodeId id, double capacity_mips) : id_(id), capacity_(capacity_mips) {
  if (capacity_mips <= 0.0) throw std::invalid_argument("GridNode: capacity must be > 0");
}

std::size_t GridNode::probe(TaskRef ref) const {
  // Fibonacci hashing of the packed (workflow, task) pair, then linear probing.
  const std::uint64_t key = (std::uint64_t{static_cast<std::uint32_t>(ref.workflow.get())} << 32) |
                            static_cast<std::uint32_t>(ref.task.get());
  const std::size_t mask = index_.size() - 1;
  auto b = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  while (index_[b] != kNoSlot && ready_[index_[b]].ref != ref) b = (b + 1) & mask;
  return b;
}

std::uint32_t GridNode::locate(TaskRef ref) const {
  return index_.empty() ? kNoSlot : index_[probe(ref)];
}

void GridNode::rebuild_index(std::size_t live) {
  // Load factor <= 1/4 after a rebuild; add_ready rebuilds again at 1/2.
  const std::size_t size = std::max(kMinIndexSize, std::bit_ceil(4 * live));
  index_.assign(size, kNoSlot);
  index_shift_ = 64 - std::countr_zero(size);
  index_used_ = 0;
  for (std::size_t s = 0; s < ready_.size(); ++s) {
    if (!queued(ready_[s])) continue;
    index_[probe(ready_[s].ref)] = static_cast<std::uint32_t>(s);
    ++index_used_;
  }
}

void GridNode::add_ready(ReadyTask task) {
  if (!task.ref.workflow.valid() || !task.ref.task.valid()) {
    throw std::invalid_argument("GridNode::add_ready: invalid task reference");
  }
  if (2 * (index_used_ + 1) > index_.size()) rebuild_index(live_ + 1);
  // One probe both rejects a duplicate and finds the bucket for the new slot.
  const std::size_t b = probe(task.ref);
  if (index_[b] != kNoSlot) throw std::logic_error("GridNode::add_ready: duplicate ready task");
  ready_.push_back(task);
  index_[b] = static_cast<std::uint32_t>(ready_.size() - 1);
  ++index_used_;
  if (queued_load_valid_) queued_load_ += task.load_mi;
  if (task.pending_inputs == 0) ++runnable_;
  depth_max_ = std::max(depth_max_, ++live_);
}

const ReadyTask* GridNode::find_ready(TaskRef ref) const {
  const std::uint32_t slot = locate(ref);
  return slot == kNoSlot ? nullptr : &ready_[slot];
}

bool GridNode::input_arrived(TaskRef ref, SimTime now) {
  const std::uint32_t slot = locate(ref);
  if (slot == kNoSlot) return false;
  ReadyTask& t = ready_[slot];
  if (t.pending_inputs == 0) --runnable_;  // an input beyond the expected ones
  if (--t.pending_inputs != 0) return false;
  t.data_ready_at = now;
  ++runnable_;
  return true;
}

void GridNode::erase_slot(std::uint32_t slot) {
  ReadyTask& t = ready_[slot];
  if (t.pending_inputs == 0) --runnable_;
  t.ref = TaskRef{};
  --live_;
  queued_load_valid_ = false;
  // Scans visit tombstones too: compact, keeping arrival order, once they
  // pass a quarter of the queued tasks (amortized O(1) per removal).
  if (4 * (ready_.size() - live_) <= live_) return;
  std::erase_if(ready_, [](const ReadyTask& r) { return !queued(r); });
  if (live_ == 0) {
    queued_load_ = 0.0;
    queued_load_valid_ = true;
  }
  rebuild_index(live_);
}

bool GridNode::remove_ready(TaskRef ref) {
  const std::uint32_t slot = locate(ref);
  if (slot == kNoSlot) return false;
  erase_slot(slot);
  return true;
}

std::vector<const ReadyTask*> GridNode::ready() const {
  std::vector<const ReadyTask*> out;
  out.reserve(live_);
  for (const auto& t : ready_) {
    if (queued(t)) out.push_back(&t);
  }
  return out;
}

std::vector<const ReadyTask*> GridNode::data_complete() const {
  std::vector<const ReadyTask*> out;
  if (runnable_ == 0) return out;
  out.reserve(runnable_);
  for (const auto& t : ready_) {
    if (queued(t) && t.pending_inputs == 0) {
      out.push_back(&t);
      if (out.size() == runnable_) break;
    }
  }
  return out;
}

std::vector<ReadyTask> GridNode::drain_ready() {
  std::vector<ReadyTask> out;
  out.reserve(live_);
  for (auto& t : ready_) {
    if (queued(t)) out.push_back(t);
  }
  ready_.clear();
  live_ = runnable_ = 0;
  queued_load_ = 0.0;
  queued_load_valid_ = true;
  rebuild_index(0);
  return out;
}

double GridNode::start_running(TaskRef ref, SimTime now) {
  if (busy()) throw std::logic_error("GridNode::start_running: CPU busy");
  const std::uint32_t slot = locate(ref);
  if (slot == kNoSlot) throw std::logic_error("GridNode::start_running: task not in ready set");
  if (ready_[slot].pending_inputs != 0) {
    throw std::logic_error("GridNode::start_running: inputs still pending");
  }
  running_ = ready_[slot];
  erase_slot(slot);
  const double duration = running_->load_mi / capacity_;
  run_started_ = now;
  run_finishes_ = now + duration;
  return duration;
}

ReadyTask GridNode::finish_running() {
  if (!busy()) throw std::logic_error("GridNode::finish_running: CPU idle");
  ReadyTask t = *running_;
  running_.reset();
  run_started_ = run_finishes_ = kNoTime;
  return t;
}

std::optional<ReadyTask> GridNode::abort_running() {
  std::optional<ReadyTask> t = running_;
  running_.reset();
  run_started_ = run_finishes_ = kNoTime;
  return t;
}

double GridNode::total_load_mi(SimTime now) const {
  if (!queued_load_valid_) {
    double sum = 0.0;
    for (const auto& t : ready_) {
      if (queued(t)) sum += t.load_mi;
    }
    queued_load_ = sum;
    queued_load_valid_ = true;
  }
  double sum = queued_load_;
  if (running_) {
    const double span = run_finishes_ - run_started_;
    const double frac = span <= 0.0 ? 0.0 : std::clamp((run_finishes_ - now) / span, 0.0, 1.0);
    sum += running_->load_mi * frac;
  }
  return sum;
}

}  // namespace dpjit::grid
