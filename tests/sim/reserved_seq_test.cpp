// Reserving a sequence number and scheduling under it later must order events
// exactly as scheduling them at reservation time does. Each differential test
// drives a reference that schedules every event the moment it is created and
// a copy that holds *rounds* of events back the way the gossip layer does:
// it reserves each event's sequence number at creation, sorts the round by
// (time, seq) once it is complete and keeps only the round's earliest event
// scheduled. Both see the same seeded stream, with heavy equal-time ties and
// foreign events created in the middle of a round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace dpjit::sim {
namespace {

/// An event a round holds back: its time, reserved sequence number and id.
struct Held {
  double t;
  std::uint64_t seq;
  int id;
};

void sort_round(std::vector<Held>& round) {
  std::sort(round.begin(), round.end(), [](const Held& a, const Held& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  });
}

/// A time at or after `now`: mostly one of a few shared values (ties).
double draw_time(util::Rng& rng, double now) {
  if (rng.bernoulli(0.6)) return now + 0.5 * static_cast<double>(rng.uniform_int(0, 3));
  return now + rng.uniform(0.0, 4.0);
}

// --- EventQueue: schedule_reserved + cancel ---------------------------------

/// The reference queue next to the queue under test. Every callback logs its
/// event id; a round's head additionally schedules the round's next live
/// event when it fires (or when it is cancelled).
struct QueueDifferential {
  EventQueue ref;
  EventQueue queue;
  std::vector<int> ref_fired;
  std::vector<int> queue_fired;
  std::vector<EventQueue::Handle> ref_handle;
  std::vector<EventQueue::Handle> queue_handle;  ///< plain events and round heads
  std::vector<int> round_of;                     ///< -1 for a plain event
  std::vector<bool> live;
  std::vector<std::vector<Held>> rounds;
  std::vector<std::size_t> round_next;  ///< index of the scheduled head
  std::vector<Held> open;               ///< the round being filled
  bool round_open = false;
  double now = 0.0;

  int new_event(double t, int round) {
    const int id = static_cast<int>(live.size());
    live.push_back(true);
    round_of.push_back(round);
    queue_handle.push_back(EventQueue::kInvalidHandle);
    ref_handle.push_back(ref.schedule(t, [this, id] { ref_fired.push_back(id); }));
    return id;
  }

  void plain(double t) {
    const int id = new_event(t, -1);
    queue_handle[static_cast<std::size_t>(id)] =
        queue.schedule(t, [this, id] { queue_fired.push_back(id); });
  }

  void reserve(double t) {
    const int id = new_event(t, static_cast<int>(rounds.size()));
    open.push_back(Held{t, queue.reserve_seq(), id});
  }

  void close_round() {
    round_open = false;
    sort_round(open);
    rounds.push_back(std::move(open));
    open.clear();
    round_next.push_back(0);
    post_head(rounds.size() - 1);
  }

  /// Schedules round `r`'s first live event under its reserved seq.
  void post_head(std::size_t r) {
    auto& next = round_next[r];
    while (next < rounds[r].size() && !live[static_cast<std::size_t>(rounds[r][next].id)]) ++next;
    if (next == rounds[r].size()) return;
    const Held h = rounds[r][next];
    queue_handle[static_cast<std::size_t>(h.id)] =
        queue.schedule_reserved(h.t, h.seq, [this, r, id = h.id] {
          queue_fired.push_back(id);
          ++round_next[r];
          post_head(r);
        });
  }

  void cancel(int id) {
    const auto i = static_cast<std::size_t>(id);
    live[i] = false;
    ASSERT_TRUE(ref.cancel(ref_handle[i]));
    const int r = round_of[i];
    if (r < 0) {
      ASSERT_TRUE(queue.cancel(queue_handle[i]));
      return;
    }
    const auto ri = static_cast<std::size_t>(r);
    if (ri < rounds.size() && rounds[ri][round_next[ri]].id == id) {
      ASSERT_TRUE(queue.cancel(queue_handle[i]));
      ++round_next[ri];
      post_head(ri);
    }
    // Otherwise the event is still held: post_head skips it.
  }

  /// Pops one event from each; false once they disagree.
  bool pop() {
    if (ref.empty() || queue.empty()) return false;
    if (ref.next_time() != queue.next_time()) return false;
    auto [ref_t, ref_fn] = ref.pop();
    auto [queue_t, queue_fn] = queue.pop();
    ref_fn();
    queue_fn();
    now = ref_t;
    live[static_cast<std::size_t>(ref_fired.back())] = false;
    return ref_t == queue_t && ref_fired.back() == queue_fired.back();
  }

  bool drain() {
    while (!ref.empty()) {
      if (!pop()) return false;
    }
    return queue.empty();
  }
};

TEST(ReservedSeq, EventQueueMatchesSchedulingAtReservation) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    QueueDifferential d;
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (d.round_open) {
        // A round fills with no pops in between, like a gossip cycle; foreign
        // events and cancels interleave with its reservations.
        if (roll < 60) {
          d.reserve(draw_time(rng, d.now));
        } else if (roll < 75) {
          d.plain(draw_time(rng, d.now));
        } else if (roll < 85) {
          const auto id = static_cast<int>(rng.index(d.live.size()));
          if (d.live[static_cast<std::size_t>(id)]) d.cancel(id);
        } else {
          d.close_round();
        }
      } else if (roll < 10) {
        d.round_open = true;
      } else if (roll < 40 || d.ref.empty()) {
        d.plain(draw_time(rng, d.now));
      } else if (roll < 50) {
        const auto id = static_cast<int>(rng.index(d.live.size()));
        if (d.live[static_cast<std::size_t>(id)]) d.cancel(id);
      } else {
        ASSERT_TRUE(d.pop()) << "seed=" << seed << " step=" << step;
      }
    }
    if (d.round_open) d.close_round();
    ASSERT_TRUE(d.drain()) << "seed=" << seed;
    EXPECT_EQ(d.queue_fired, d.ref_fired) << "seed=" << seed;
  }
}

// --- Engine: rounds drained through take_next -------------------------------

/// One engine driven by a seeded script. A cycle event every 10 s creates a
/// burst of events at tied and spread times, with foreign events created in
/// the middle of it; some events schedule a child, a few request a stop.
/// Unrounded, each event is scheduled when it is created. Rounded, each
/// burst is a round: one pending event that runs its successors in place
/// while take_next() allows and re-posts itself otherwise.
struct Script {
  explicit Script(bool rounded) : rounded(rounded) {}

  bool rounded;
  Engine engine;
  util::Rng rng{7};
  /// (id, now, processed) per event run; id -1 marks a cycle.
  std::vector<std::tuple<int, double, std::uint64_t>> log;
  int next_id = 0;
  std::vector<std::vector<Held>> rounds;
  std::vector<std::size_t> round_next;

  void fire(int id) {
    log.emplace_back(id, engine.now(), engine.processed());
    if (id % 5 == 0) {
      const int child = next_id++;
      engine.schedule_in(0.5 * (id % 3), [this, child] { fire(child); });
    }
    if (id % 37 == 0) engine.request_stop();
  }

  void cycle() {
    log.emplace_back(-1, engine.now(), engine.processed());
    std::vector<Held> round;
    const std::int64_t burst = rng.uniform_int(1, 40);
    for (std::int64_t i = 0; i < burst; ++i) {
      const double t = draw_time(rng, engine.now());
      const int id = next_id++;
      if (rounded) {
        round.push_back(Held{t, engine.reserve_seq(), id});
      } else {
        engine.schedule_at(t, [this, id] { fire(id); });
      }
      if (rng.bernoulli(0.2)) {
        const int foreign = next_id++;
        engine.schedule_at(draw_time(rng, engine.now()), [this, foreign] { fire(foreign); });
      }
    }
    if (!round.empty()) {
      sort_round(round);
      rounds.push_back(std::move(round));
      round_next.push_back(0);
      post(rounds.size() - 1);
    }
    if (engine.now() < 600.0) engine.schedule_in(10.0, [this] { cycle(); });
  }

  void post(std::size_t r) {
    const Held& h = rounds[r][round_next[r]];
    engine.schedule_reserved(h.t, h.seq, [this, r] { drain(r); });
  }

  void drain(std::size_t r) {
    for (;;) {
      fire(rounds[r][round_next[r]++].id);
      if (round_next[r] == rounds[r].size()) return;
      const Held& h = rounds[r][round_next[r]];
      if (!engine.take_next(h.t, h.seq)) {
        post(r);
        return;
      }
    }
  }

  /// Runs the script under a seeded mix of run_until, step and run_all calls,
  /// logging the clock after each.
  void run() {
    engine.schedule_at(0.0, [this] { cycle(); });
    util::Rng driver(3);
    double end = 0.0;
    while (engine.pending() > 0) {
      const std::int64_t roll = driver.uniform_int(0, 19);
      if (roll < 12) {
        end = std::max(end, engine.now()) + driver.uniform(0.0, 6.0);
        engine.run_until(end);
      } else if (roll < 19) {
        engine.step();
      } else {
        engine.run_all();
      }
      log.emplace_back(-2, engine.now(), engine.processed());
    }
  }
};

TEST(ReservedSeq, EngineRoundsMatchSchedulingEveryEvent) {
  Script each(false);
  Script rounded(true);
  each.run();
  rounded.run();
  ASSERT_GT(each.engine.processed(), 1000u);
  EXPECT_EQ(rounded.log, each.log);
  EXPECT_EQ(rounded.engine.processed(), each.engine.processed());
  // The rounds held their events back: far fewer were ever pending at once.
  EXPECT_LT(rounded.engine.pending_max(), each.engine.pending_max());
}

}  // namespace
}  // namespace dpjit::sim
