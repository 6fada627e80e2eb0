#include "sim/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace dpjit::sim {

namespace {
/// Pending-set geometry, in windows: each coarse bucket spans 64 windows and
/// the ring 4096 buckets. At the scale model's 0.01 s window that is 0.64 s
/// buckets (a few hundred events each at 10^5 peers) and a 2 621 s ring,
/// which holds every periodic timer; rarer, longer delays overflow.
constexpr double kBucketWindows = 64.0;
constexpr std::size_t kRingBuckets = 4096;
}  // namespace

ShardEngine::ShardEngine(int shards, double window_s) : window_(window_s) {
  if (shards < 1) throw std::invalid_argument("ShardEngine: shards must be >= 1");
  if (!(window_s > 0.0) || !std::isfinite(window_s)) {
    throw std::invalid_argument("ShardEngine: window must be positive and finite (got " +
                                std::to_string(window_s) + ")");
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.emplace_back(TwoTierQueue(kBucketWindows * window_s, kRingBuckets));
  }
}

std::size_t ShardEngine::idx(int shard) const {
  if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
    throw std::out_of_range("ShardEngine: shard " + std::to_string(shard) + " out of range [0, " +
                            std::to_string(shards_.size()) + ")");
  }
  return static_cast<std::size_t>(shard);
}

void ShardEngine::seed(int to_shard, SimTime t, std::uint64_t key, EventFn fn) {
  if (running_) throw std::logic_error("ShardEngine::seed: engine already running (use post)");
  if (!(t >= 0.0)) throw std::logic_error("ShardEngine::seed: negative or NaN time");
  seeds_.push_back(Message{t, key, static_cast<std::uint32_t>(idx(to_shard)), std::move(fn)});
}

void ShardEngine::post(int from_shard, int to_shard, SimTime t, std::uint64_t key, EventFn fn) {
  Shard& from = shards_[idx(from_shard)];
  // Conservative-lookahead guarantee: the message may not land inside the
  // window the sender is executing in (floating-point addition is monotonic,
  // so delay >= window implies now + delay >= now + window >= window end).
  // Written negated so a NaN time fails it too.
  if (!(t >= from.now + window_)) {
    throw std::logic_error("ShardEngine::post: message at t=" + std::to_string(t) +
                           " violates lookahead (sender now=" + std::to_string(from.now) +
                           ", window=" + std::to_string(window_) + ")");
  }
  from.outbox.push_back(Message{t, key, static_cast<std::uint32_t>(idx(to_shard)), std::move(fn)});
}

void ShardEngine::drive_shard(Shard& shard, SimTime window_end, SimTime end) {
  TwoTierQueue& q = shard.queue;
  while (!q.empty()) {
    const SimTime t = q.next_time();
    if (t >= window_end || t > end) break;
    auto [time, fn] = q.pop();
    shard.now = time;
    ++shard.processed;
    fn();
  }
}

void ShardEngine::drain_messages() {
  // Sort compact (time, key) references, not the messages: a message carries
  // a 64-byte callback, and this way each one moves exactly once, straight
  // from its outbox into the receiver's queue.
  order_.clear();
  const auto box_count = static_cast<std::uint32_t>(shards_.size() + 1);
  for (std::uint32_t b = 0; b < box_count; ++b) {
    const std::vector<Message>& box = outbox(b);
    for (std::uint32_t i = 0; i < box.size(); ++i) order_.push_back({box[i].t, box[i].key, b, i});
  }
  if (order_.empty()) return;
  // One global (time, key) sort: every receiver sees the same relative
  // delivery order no matter which shard (or thread) produced a message.
  std::sort(order_.begin(), order_.end(), [](const Delivery& a, const Delivery& b) {
    return a.t != b.t ? a.t < b.t : a.key < b.key;
  });
  // A duplicate (time, key) pair has no defined order: it would follow
  // whichever shard produced it, so results would depend on the shard count.
  const auto dup = std::adjacent_find(order_.begin(), order_.end(),
                                      [](const Delivery& a, const Delivery& b) {
                                        return a.t == b.t && a.key == b.key;
                                      });
  if (dup != order_.end()) {
    throw std::logic_error("ShardEngine: duplicate message key " + std::to_string(dup->key) +
                           " at t=" + std::to_string(dup->t) +
                           " (keys must be globally unique)");
  }
  for (const Delivery& d : order_) {
    Message& m = outbox(d.box)[d.index];
    shards_[m.to].queue.push(m.t, std::move(m.fn));
  }
  for (std::uint32_t b = 0; b < box_count; ++b) outbox(b).clear();
}

void ShardEngine::run_until(SimTime end) {
  running_ = true;
  drain_messages();  // seeds (and any carry-over from a previous run_until)

  // Persistent window pool. A conservative run executes up to millions of
  // windows, so spawning threads per window (util::parallel_for_blocks costs
  // tens of microseconds per call in thread start-up alone) would dwarf the
  // window payloads — measured 50x slower than serial on the 10^5-peer scale
  // scenario. Instead, workers 1..W-1 live for the whole run and every
  // parallel window is a two-barrier handoff: the coordinator publishes the
  // window bound, `start` releases the workers onto their fixed shard blocks,
  // `finish` hands the shards back before the message drain. Sub-threshold
  // windows never touch the barriers; the workers just stay parked in
  // `start.arrive_and_wait`.
  const std::size_t shard_count = shards_.size();
  const int workers =
      shard_count > 1 ? util::resolve_threads(threads_, shard_count) : 1;

  SimTime window_end = 0.0;        // published by the coordinator before `start`
  std::atomic<bool> quit{false};   // checked by workers right after `start`
  std::barrier<> start(workers);
  std::barrier<> finish(workers);
  std::mutex error_mutex;
  std::exception_ptr error;

  // Worker w's fixed block of shards; the coordinator is worker 0.
  auto drive_block = [&](int w, SimTime bound) {
    const std::size_t begin = shard_count * static_cast<std::size_t>(w) /
                              static_cast<std::size_t>(workers);
    const std::size_t stop = shard_count * static_cast<std::size_t>(w + 1) /
                             static_cast<std::size_t>(workers);
    try {
      for (std::size_t s = begin; s < stop; ++s) drive_shard(shards_[s], bound, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers > 1 ? static_cast<std::size_t>(workers - 1) : 0);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        start.arrive_and_wait();
        if (quit.load(std::memory_order_relaxed)) return;
        drive_block(w, window_end);
        finish.arrive_and_wait();
      }
    });
  }
  auto shutdown_pool = [&] {
    if (pool.empty()) return;
    quit.store(true, std::memory_order_relaxed);
    start.arrive_and_wait();
    for (std::thread& t : pool) t.join();
    pool.clear();
  };

  // Events executed in the previous window: the parallel gate. Per-window
  // executed counts are invariant to the shard count and thread count (the
  // window sequence is), so whether a window runs parallel never feeds back
  // into results — it is pure wall-clock policy.
  std::uint64_t executed_last = 0;
  try {
    for (;;) {
      // T = earliest pending event anywhere; the window [T, T + L) depends
      // only on event times, never on the shard layout.
      SimTime t_min = kInf;
      std::size_t total_pending = 0;
      for (const Shard& shard : shards_) {
        if (!shard.queue.empty()) t_min = std::min(t_min, shard.queue.next_time());
        total_pending += shard.queue.size();
      }
      pending_max_ = std::max(pending_max_, total_pending);
      if (t_min > end || total_pending == 0) break;
      window_end = t_min + window_;

      const std::uint64_t executed_before = processed();
      if (!pool.empty() && executed_last >= parallel_threshold_) {
        ++parallel_windows_;
        start.arrive_and_wait();
        drive_block(0, window_end);
        finish.arrive_and_wait();
        if (error) break;
      } else {
        for (Shard& shard : shards_) drive_shard(shard, window_end, end);
      }
      ++windows_;
      executed_last = processed() - executed_before;
      drain_messages();
    }
  } catch (...) {
    // An event or the drain threw on the coordinator (e.g. a lookahead
    // violation in a handler): park the workers before propagating, or the
    // std::thread destructors would terminate().
    shutdown_pool();
    throw;
  }
  shutdown_pool();
  if (error) std::rethrow_exception(error);

  for (Shard& shard : shards_) shard.now = std::max(shard.now, end);
}

std::uint64_t ShardEngine::processed() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.processed;
  return total;
}

std::size_t ShardEngine::pending() const {
  std::size_t total = seeds_.size();
  for (const Shard& shard : shards_) total += shard.queue.size() + shard.outbox.size();
  return total;
}

}  // namespace dpjit::sim
