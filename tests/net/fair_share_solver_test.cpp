// FairShareSolver: the incremental component-scoped max-min engine must stay
// bit-identical to a from-scratch solve through arbitrary add/remove/batch
// histories, and must not touch flows outside the affected component.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>

#include "net/flow_sharing.hpp"

namespace dpjit::net {
namespace {

/// Asserts every flow's incremental rate equals a from-scratch solve of the
/// current flow set, bit for bit.
void expect_matches_full_solve(const FairShareSolver& solver) {
  for (const auto& [id, rate] : solver.full_solve()) {
    EXPECT_EQ(solver.rate(id), rate) << "flow " << id << ": incremental diverged from full solve";
  }
}

/// Checks one mutation against the from-scratch anchor: updated() must be
/// exactly the reference component solve seeded with the mutated flows'
/// links, and every flow must hold the rate the history of those reference
/// solves gives it (`expected`, updated here), bit for bit.
void expect_matches_anchor(const FairShareSolver& solver, const std::vector<LinkId>& seeds,
                           std::map<std::uint64_t, double>& expected) {
  const auto want = solver.resolve_reference(seeds);
  std::vector<std::pair<std::uint64_t, double>> got;
  for (const auto& u : solver.updated()) got.emplace_back(u.id, u.rate);
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].second),
              std::bit_cast<std::uint64_t>(want[i].second))
        << "flow " << got[i].first << ": resumed solve diverged from the anchor";
  }
  for (const auto& [id, rate] : want) expected[id] = rate;
  ASSERT_EQ(solver.full_solve().size(), expected.size());
  for (const auto& [id, rate] : expected) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(solver.rate(id)), std::bit_cast<std::uint64_t>(rate))
        << "flow " << id << " outside the re-solved component moved";
  }
}

TEST(FairShareSolver, SingleFlowThenSharing) {
  FairShareSolver s({10.0});
  s.add(1, {LinkId{0}});
  EXPECT_DOUBLE_EQ(s.rate(1), 10.0);
  s.add(2, {LinkId{0}});
  EXPECT_DOUBLE_EQ(s.rate(1), 5.0);
  EXPECT_DOUBLE_EQ(s.rate(2), 5.0);
  s.remove_batch({1});
  EXPECT_DOUBLE_EQ(s.rate(2), 10.0);
  EXPECT_EQ(s.full_solve().size(), 1u);
}

TEST(FairShareSolver, ClassicThreeFlowExample) {
  FairShareSolver s({10.0, 4.0});
  s.add(7, {LinkId{0}});
  s.add(8, {LinkId{0}, LinkId{1}});
  s.add(9, {LinkId{1}});
  EXPECT_DOUBLE_EQ(s.rate(8), 2.0);
  EXPECT_DOUBLE_EQ(s.rate(9), 2.0);
  EXPECT_DOUBLE_EQ(s.rate(7), 8.0);
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, LoopbackFlowIsUnlimitedAndInert) {
  FairShareSolver s({6.0});
  s.add(1, {LinkId{0}});
  s.add(2, {});
  EXPECT_TRUE(std::isinf(s.rate(2)));
  EXPECT_DOUBLE_EQ(s.rate(1), 6.0);  // untouched by the loopback flow
  ASSERT_EQ(s.updated().size(), 1u);
  EXPECT_EQ(s.updated()[0].id, 2u);
  s.remove_batch({2});
  EXPECT_DOUBLE_EQ(s.rate(1), 6.0);
}

TEST(FairShareSolver, DisjointComponentsAreNotResolved) {
  FairShareSolver s({4.0, 8.0});
  s.add(1, {LinkId{0}});
  s.add(2, {LinkId{0}});
  // Adding a flow on the other link must only re-solve its own component.
  s.add(3, {LinkId{1}});
  ASSERT_EQ(s.updated().size(), 1u);
  EXPECT_EQ(s.updated()[0].id, 3u);
  EXPECT_DOUBLE_EQ(s.updated()[0].rate, 8.0);
  EXPECT_DOUBLE_EQ(s.rate(1), 2.0);
  EXPECT_DOUBLE_EQ(s.rate(2), 2.0);
  // Removing it likewise leaves the link-0 component alone.
  s.remove_batch({3});
  EXPECT_TRUE(s.updated().empty());
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, BridgingFlowMergesComponents) {
  FairShareSolver s({4.0, 8.0});
  s.add(1, {LinkId{0}});
  s.add(2, {LinkId{1}});
  s.add(3, {LinkId{0}, LinkId{1}});
  // All three flows now share one component and were all re-solved.
  std::set<std::uint64_t> touched;
  for (const auto& u : s.updated()) touched.insert(u.id);
  EXPECT_EQ(touched, (std::set<std::uint64_t>{1, 2, 3}));
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, ZeroCapacityLinkYieldsZeroRate) {
  FairShareSolver s({0.0, 5.0});
  s.add(1, {LinkId{0}, LinkId{1}});
  s.add(2, {LinkId{1}});
  EXPECT_DOUBLE_EQ(s.rate(1), 0.0);
  EXPECT_DOUBLE_EQ(s.rate(2), 5.0);
  expect_matches_full_solve(s);
  s.remove_batch({1});
  EXPECT_DOUBLE_EQ(s.rate(2), 5.0);
}

TEST(FairShareSolver, DuplicateLinkCrossingsSurviveChurn) {
  FairShareSolver s({9.0});
  s.add(1, {LinkId{0}, LinkId{0}});
  s.add(2, {LinkId{0}});
  EXPECT_DOUBLE_EQ(s.rate(1), 3.0);
  EXPECT_DOUBLE_EQ(s.rate(2), 3.0);
  // Swap-erase unlinking must survive a flow occupying two slots of one link.
  s.remove_batch({1});
  EXPECT_DOUBLE_EQ(s.rate(2), 9.0);
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, BatchRemovalMatchesSequentialRemoval) {
  const std::vector<double> caps{3.0, 7.0, 2.0, 11.0};
  FairShareSolver batch(caps);
  FairShareSolver seq(caps);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    std::vector<LinkId> links{LinkId{static_cast<LinkId::underlying_type>(id % 4)}};
    if (id % 3 == 0) links.push_back(LinkId{static_cast<LinkId::underlying_type>((id + 1) % 4)});
    batch.add(id, links);
    seq.add(id, links);
  }
  const std::vector<std::uint64_t> doomed{2, 3, 5, 8};
  batch.remove_batch(doomed);
  for (std::uint64_t id : doomed) seq.remove_batch({id});
  for (std::uint64_t id : {1, 4, 6, 7}) {
    EXPECT_EQ(batch.rate(id), seq.rate(id));
  }
  expect_matches_full_solve(batch);
}

TEST(FairShareSolver, RandomizedDifferentialAgainstFullSolve) {
  // Drive the solver through random add/remove/remove_batch histories over a
  // shared link pool and check bit-identity with a from-scratch solve after
  // every mutation - the property the golden digests of the contention
  // scenarios rely on.
  std::mt19937_64 gen(0xfa1f);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n_links = 2 + round % 5;
    std::vector<double> caps;
    std::uniform_real_distribution<double> cap(0.5, 16.0);
    for (std::size_t l = 0; l < n_links; ++l) caps.push_back(cap(gen));
    FairShareSolver solver(caps);
    std::vector<std::uint64_t> live;
    std::uint64_t next_id = 1;
    std::uniform_int_distribution<int> op_pick(0, 9);
    for (int op = 0; op < 120; ++op) {
      const int what = op_pick(gen);
      if (live.empty() || what < 5) {
        // add
        std::vector<LinkId> links;
        std::uniform_int_distribution<std::size_t> len(0, std::min<std::size_t>(3, n_links));
        std::uniform_int_distribution<std::size_t> pick(0, n_links - 1);
        const std::size_t want = len(gen);
        for (std::size_t k = 0; k < want; ++k) {
          links.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
        }
        solver.add(next_id, std::move(links));
        live.push_back(next_id);
        ++next_id;
      } else if (what < 8) {
        // remove one
        std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
        const std::size_t at = pick(gen);
        solver.remove_batch({live[at]});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        // batch-remove a random subset (mass teardown)
        std::vector<std::uint64_t> doomed;
        std::vector<std::uint64_t> kept;
        std::bernoulli_distribution take(0.4);
        for (std::uint64_t id : live) (take(gen) ? doomed : kept).push_back(id);
        solver.remove_batch(doomed);
        live = std::move(kept);
      }
      ASSERT_EQ(solver.full_solve().size(), live.size());
      expect_matches_full_solve(solver);
      // updated() must cover every flow whose rate differs from before - spot
      // check: rates of flows outside updated() equal the full solve too
      // (covered by expect_matches_full_solve above).
    }
  }
}

/// FNV-1a over everything observable about the solver: flow membership,
/// per-flow rates (bit patterns) and the full_solve() cross-check. Any state
/// mutation a probe leaked would either show up here directly or desync a
/// later incremental solve from the reference (caught by the differential
/// checks that run after every mutation below).
std::uint64_t solver_state_digest(const FairShareSolver& solver,
                                  const std::vector<std::uint64_t>& live) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  auto sorted = live;
  std::sort(sorted.begin(), sorted.end());
  mix(solver.full_solve().size());
  for (const std::uint64_t id : sorted) {
    mix(id);
    mix(std::bit_cast<std::uint64_t>(solver.rate(id)));
  }
  return h;
}

TEST(FairShareSolver, ProbeIsSideEffectFreeUnderRandomizedChurn) {
  // The ISSUE-5 oracle property: 10k+ what-if probes interleaved with a
  // randomized add/remove churn history must leave the solver state digest
  // bit-identical, and every subsequent incremental solve must still match
  // the from-scratch reference.
  std::mt19937_64 gen(0x9a0be);
  const std::size_t n_links = 6;
  std::vector<double> caps;
  std::uniform_real_distribution<double> cap(0.5, 16.0);
  for (std::size_t l = 0; l < n_links; ++l) caps.push_back(cap(gen));
  FairShareSolver solver(caps);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  std::uniform_int_distribution<int> op_pick(0, 9);
  std::uniform_int_distribution<std::size_t> len(0, 4);
  std::uniform_int_distribution<std::size_t> pick(0, n_links - 1);
  auto random_links = [&] {
    std::vector<LinkId> links;
    const std::size_t want = len(gen);
    for (std::size_t k = 0; k < want; ++k) {
      links.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
    }
    return links;
  };

  int probes = 0;
  for (int op = 0; op < 120; ++op) {
    if (live.empty() || op_pick(gen) < 6) {
      solver.add(next_id, random_links());
      live.push_back(next_id++);
    } else {
      std::uniform_int_distribution<std::size_t> at(0, live.size() - 1);
      const std::size_t k = at(gen);
      solver.remove_batch({live[k]});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    const std::uint64_t before = solver_state_digest(solver, live);
    for (int p = 0; p < 100; ++p, ++probes) {
      (void)solver.probe_rate(random_links());
    }
    ASSERT_EQ(solver_state_digest(solver, live), before)
        << "probe mutated solver state after op " << op;
    expect_matches_full_solve(solver);
  }
  EXPECT_GE(probes, 10000);
}

TEST(FairShareSolver, ProbeMatchesSubsequentAddBitExact) {
  // probe_rate must predict exactly the rate add() then assigns - same
  // component collection, same round-synchronous arithmetic.
  std::mt19937_64 gen(0x50be);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n_links = 3 + round % 4;
    std::vector<double> caps;
    std::uniform_real_distribution<double> cap(0.5, 16.0);
    for (std::size_t l = 0; l < n_links; ++l) caps.push_back(cap(gen));
    FairShareSolver solver(caps);
    std::uint64_t next_id = 1;
    std::uniform_int_distribution<std::size_t> len(0, 3);
    std::uniform_int_distribution<std::size_t> pick(0, n_links - 1);
    for (int op = 0; op < 60; ++op) {
      std::vector<LinkId> links;
      const std::size_t want = len(gen);
      for (std::size_t k = 0; k < want; ++k) {
        links.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
      }
      const double predicted = solver.probe_rate(links);
      solver.add(next_id, links);
      const double actual = solver.rate(next_id);
      if (std::isinf(predicted)) {
        EXPECT_TRUE(std::isinf(actual));
      } else {
        EXPECT_EQ(predicted, actual) << "round " << round << " op " << op;
      }
      ++next_id;
    }
  }
}

TEST(FairShareSolver, ProbeEdgeCases) {
  FairShareSolver s({10.0, 0.0, 4.0});
  EXPECT_TRUE(std::isinf(s.probe_rate({})));                      // loopback
  EXPECT_DOUBLE_EQ(s.probe_rate({LinkId{1}}), 0.0);               // dead link
  EXPECT_DOUBLE_EQ(s.probe_rate({LinkId{0}}), 10.0);              // idle link
  EXPECT_DOUBLE_EQ(s.probe_rate({LinkId{0}, LinkId{2}}), 4.0);    // min cap
  s.add(1, {LinkId{0}});
  EXPECT_DOUBLE_EQ(s.probe_rate({LinkId{0}}), 5.0);  // would share with flow 1
  EXPECT_DOUBLE_EQ(s.rate(1), 10.0);                 // ... which keeps its rate
}

TEST(FairShareSolver, ManyDisjointComponentsStayIndependent) {
  // 64 disjoint single-flow components; each mutation re-solves exactly one.
  std::vector<double> caps(64, 10.0);
  FairShareSolver s(caps);
  for (std::uint64_t id = 0; id < 64; ++id) {
    s.add(id + 1, {LinkId{static_cast<LinkId::underlying_type>(id)}});
    EXPECT_EQ(s.updated().size(), 1u);
  }
  for (std::uint64_t id = 0; id < 64; ++id) {
    s.add(100 + id, {LinkId{static_cast<LinkId::underlying_type>(id)}});
    ASSERT_EQ(s.updated().size(), 2u);
    EXPECT_DOUBLE_EQ(s.rate(id + 1), 5.0);
  }
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, MutationStampMovesOnMutationsOnly) {
  // The probe-cache invalidation contract: every observable mutation bumps
  // the stamp; probes - however many - never do.
  const std::vector<double> caps = {10.0, 10.0};
  FairShareSolver s(caps);
  EXPECT_EQ(s.mutation_stamp(), 0u);
  s.add(1, {LinkId{0}, LinkId{1}});
  const std::uint64_t after_add = s.mutation_stamp();
  EXPECT_GT(after_add, 0u);
  for (int i = 0; i < 100; ++i) {
    (void)s.probe_rate({LinkId{0}});
    (void)s.probe_rate({LinkId{0}, LinkId{1}});
    (void)s.probe_rate({});
  }
  EXPECT_EQ(s.mutation_stamp(), after_add);
  s.add(2, {LinkId{0}});
  EXPECT_GT(s.mutation_stamp(), after_add);
  const std::uint64_t after_second = s.mutation_stamp();
  s.remove_batch({2});
  EXPECT_GT(s.mutation_stamp(), after_second);
  const std::uint64_t after_remove = s.mutation_stamp();
  s.add(3, {LinkId{1}});
  s.remove_batch({1, 3});
  EXPECT_GT(s.mutation_stamp(), after_remove + 1);  // add + batch both bumped
}

TEST(FairShareSolver, ProbeReplayMatchesReferenceUnderRandomizedChurn) {
  // The fast probe path answers from the components' recorded fills;
  // probe_rate_reference re-runs the progressive fill from scratch every
  // call. The two must be bit-identical for every probe - this is what lets
  // the replay answer stand in for the legacy loop without moving a single
  // golden digest. Paths with repeated links and probes spanning disjoint
  // islands (which fall back to the reference) are part of the mix on
  // purpose.
  std::mt19937_64 gen(0x5eed8);
  for (const std::size_t n_links : {4UL, 9UL, 16UL}) {
    std::vector<double> caps;
    std::uniform_real_distribution<double> cap(0.5, 16.0);
    for (std::size_t l = 0; l < n_links; ++l) caps.push_back(cap(gen));
    FairShareSolver solver(caps);
    std::vector<std::uint64_t> live;
    std::uint64_t next_id = 1;
    std::uniform_int_distribution<int> op_pick(0, 9);
    std::uniform_int_distribution<std::size_t> len(0, 5);
    // Flows live on the lower half of the pool so probes over the full pool
    // regularly cross island boundaries and idle links.
    std::uniform_int_distribution<std::size_t> flow_pick(0, n_links / 2);
    std::uniform_int_distribution<std::size_t> probe_pick(0, n_links - 1);
    auto random_links = [&](auto& dist) {
      std::vector<LinkId> links;
      const std::size_t want = len(gen);
      for (std::size_t k = 0; k < want; ++k) {
        links.push_back(LinkId{static_cast<LinkId::underlying_type>(dist(gen))});
      }
      return links;  // duplicates allowed: repeated crossings are legal paths
    };
    for (int op = 0; op < 150; ++op) {
      if (live.empty() || op_pick(gen) < 6) {
        solver.add(next_id, random_links(flow_pick));
        live.push_back(next_id++);
      } else {
        std::uniform_int_distribution<std::size_t> at(0, live.size() - 1);
        const std::size_t k = at(gen);
        solver.remove_batch({live[k]});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
      for (int p = 0; p < 40; ++p) {
        const std::vector<LinkId> path = random_links(probe_pick);
        const double fast = solver.probe_rate(path);
        const double ref = solver.probe_rate_reference(path);
        ASSERT_EQ(fast, ref) << "probe diverged from reference at op " << op;
      }
    }
  }
}

TEST(FairShareSolver, ProbeReplayMatchesReferenceOnLargeComponent) {
  // A single component wide enough (> 2x the near-set size) that the solver's
  // near/far share-scan partition engages: the recorded fills and their
  // replays must still match the reference fill exactly, round for round.
  std::mt19937_64 gen(0xb16c0);
  const std::size_t n_links = 220;
  std::vector<double> caps;
  std::uniform_real_distribution<double> cap(0.5, 16.0);
  for (std::size_t l = 0; l < n_links; ++l) caps.push_back(cap(gen));
  FairShareSolver solver(caps);
  std::uniform_int_distribution<std::size_t> pick(0, n_links - 1);
  // A shared backbone link glues everything into one component; two extra
  // random crossings per flow spread the contention.
  for (std::uint64_t id = 1; id <= 300; ++id) {
    std::vector<LinkId> links{LinkId{0}};
    links.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
    links.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
    solver.add(id, std::move(links));
  }
  expect_matches_full_solve(solver);
  for (int p = 0; p < 500; ++p) {
    std::vector<LinkId> path;
    const std::size_t want = 1 + p % 4;
    for (std::size_t k = 0; k < want; ++k) {
      path.push_back(LinkId{static_cast<LinkId::underlying_type>(pick(gen))});
    }
    const double fast = solver.probe_rate(path);
    const double ref = solver.probe_rate_reference(path);
    ASSERT_EQ(fast, ref) << "probe " << p << " diverged on the wide component";
  }
}

TEST(FairShareSolver, RemovalCanLowerASurvivorsRate) {
  // Max-min fairness is not population-monotone. L0 (cap 1) carries A, B and
  // D; L1 (cap 1) carries B and C. Removing A lifts B from 1/3 to 1/2, which
  // takes capacity from C on L1: C drops from 2/3 to 1/2. The removal takes
  // the resumed path, so this pins it against both anchors.
  FairShareSolver s({1.0, 1.0});
  s.add(1, {LinkId{0}});               // A
  s.add(2, {LinkId{0}, LinkId{1}});    // B
  s.add(3, {LinkId{1}});               // C
  s.add(4, {LinkId{0}});               // D
  EXPECT_DOUBLE_EQ(s.rate(3), 2.0 / 3.0);
  const std::uint64_t resumed = s.resumed_solves();
  s.remove_batch({1});
  EXPECT_EQ(s.resumed_solves(), resumed + 1);
  EXPECT_EQ(s.rate(3), 0.5);
  EXPECT_EQ(s.rate(2), 0.5);
  EXPECT_EQ(s.rate(4), 0.5);
  expect_matches_full_solve(s);
  std::map<std::uint64_t, double> expected{{2, 0.5}, {3, 0.5}, {4, 0.5}};
  expect_matches_anchor(s, {LinkId{0}}, expected);
}

TEST(FairShareSolver, SplitKeepsTheJointFillThenRecollects) {
  // A - B - C chained over L0..L3; removing B splits {A} from {C}. The
  // removal's own solve is the joint fill over both parts (what a BFS from
  // B's links solves), so C - whose own bottleneck sits within
  // kShareTolerance above A's - freezes with A at A's share. The record is
  // dropped: a probe rebuilds C's part alone, and the next add there
  // resumes from that record.
  const double cap = 1.0;
  FairShareSolver s({cap, 4.0, 4.0, cap * (1.0 + 1e-13)});
  std::map<std::uint64_t, double> expected;
  s.add(1, {LinkId{0}, LinkId{1}});  // A
  expect_matches_anchor(s, {LinkId{0}, LinkId{1}}, expected);
  s.add(2, {LinkId{1}, LinkId{2}});  // B
  expect_matches_anchor(s, {LinkId{1}, LinkId{2}}, expected);
  s.add(3, {LinkId{2}, LinkId{3}});  // C
  expect_matches_anchor(s, {LinkId{2}, LinkId{3}}, expected);

  const std::uint64_t resumed = s.resumed_solves();
  const std::uint64_t full = s.full_solves();
  s.remove_batch({2});
  expected.erase(2);
  EXPECT_EQ(s.resumed_solves(), resumed + 1);
  expect_matches_anchor(s, {LinkId{1}, LinkId{2}}, expected);
  EXPECT_EQ(s.rate(3), s.rate(1)) << "the split's joint fill froze A and C together";

  // Probing C's part builds its own record (C alone would get cap*(1+1e-13))
  // without touching any rate.
  EXPECT_EQ(s.probe_rate({LinkId{3}}), s.probe_rate_reference({LinkId{3}}));
  EXPECT_EQ(s.rate(3), s.rate(1));
  s.add(4, {LinkId{3}});
  EXPECT_EQ(s.resumed_solves(), resumed + 2);
  EXPECT_EQ(s.full_solves(), full);
  expect_matches_anchor(s, {LinkId{3}}, expected);

  // A's part has no record: its next mutation re-collects from scratch.
  s.add(5, {LinkId{0}});
  EXPECT_EQ(s.full_solves(), full + 1);
  expect_matches_anchor(s, {LinkId{0}}, expected);
}

TEST(FairShareSolver, BatchRemovalAcrossComponentsReSolvesTheirUnion) {
  FairShareSolver s({3.0, 5.0, 7.0, 2.0});
  std::map<std::uint64_t, double> expected;
  const std::vector<std::vector<LinkId>> paths = {
      {LinkId{0}}, {LinkId{0}, LinkId{1}}, {LinkId{1}}, {LinkId{2}}, {LinkId{2}, LinkId{3}},
      {LinkId{3}}};
  for (std::uint64_t id = 0; id < paths.size(); ++id) {
    s.add(id + 1, paths[id]);
    expect_matches_anchor(s, paths[id], expected);
  }
  const std::uint64_t full = s.full_solves();
  s.remove_batch({2, 5});  // one flow of each component
  EXPECT_EQ(s.full_solves(), full + 1);
  expected.erase(2);
  expected.erase(5);
  std::vector<LinkId> seeds = paths[1];
  seeds.insert(seeds.end(), paths[4].begin(), paths[4].end());
  expect_matches_anchor(s, seeds, expected);
  expect_matches_full_solve(s);
}

TEST(FairShareSolver, RandomizedResumeMatchesFromScratchAnchor) {
  // Every mutation is checked bitwise against the from-scratch anchor (BFS
  // plus reference fill): merges (bridging flows), splits (removing them),
  // batches spanning components, repeated crossings, zero-capacity links and
  // capacities tied within kShareTolerance, with probes interleaved.
  std::mt19937_64 gen(0x2e5c3e);
  std::uint64_t resumed = 0;
  std::uint64_t full = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n_links = 6 + static_cast<std::size_t>(round);
    std::vector<double> caps;
    std::uniform_real_distribution<double> cap(0.5, 16.0);
    std::uniform_int_distribution<int> kind(0, 9);
    for (std::size_t l = 0; l < n_links; ++l) {
      const int k = kind(gen);
      if (k == 0) {
        caps.push_back(0.0);
      } else if (k < 4 && !caps.empty()) {
        caps.push_back(caps.back() * (1.0 + 3e-13));  // a near-tie with the last link
      } else {
        caps.push_back(cap(gen));
      }
    }
    FairShareSolver solver(caps);
    std::map<std::uint64_t, std::vector<LinkId>> live;
    std::map<std::uint64_t, double> expected;
    std::uint64_t next_id = 1;
    // Flows mostly stay inside one of three link clusters; a few bridge two,
    // so components keep merging and splitting.
    const std::size_t cluster = n_links / 3;
    std::uniform_int_distribution<std::size_t> cluster_pick(0, 2);
    std::uniform_int_distribution<std::size_t> in_cluster(0, cluster - 1);
    std::uniform_int_distribution<std::size_t> any_link(0, n_links - 1);
    std::uniform_int_distribution<std::size_t> len(1, 4);
    std::bernoulli_distribution bridge(0.15);
    std::uniform_int_distribution<int> op_pick(0, 9);
    auto random_path = [&] {
      std::vector<LinkId> links;
      const std::size_t c = cluster_pick(gen);
      const std::size_t want = len(gen);
      for (std::size_t k = 0; k < want; ++k) {
        const std::size_t l = bridge(gen) ? any_link(gen) : c * cluster + in_cluster(gen);
        links.push_back(LinkId{static_cast<LinkId::underlying_type>(l)});
      }
      return links;  // duplicates allowed: repeated crossings are legal paths
    };
    for (int op = 0; op < 250; ++op) {
      const int what = op_pick(gen);
      if (live.empty() || what < 5) {
        std::vector<LinkId> links = random_path();
        solver.add(next_id, links);
        live.emplace(next_id, links);
        expect_matches_anchor(solver, links, expected);
        ++next_id;
      } else if (what < 8) {
        std::uniform_int_distribution<std::size_t> at(0, live.size() - 1);
        auto it = std::next(live.begin(), static_cast<std::ptrdiff_t>(at(gen)));
        const std::vector<LinkId> seeds = it->second;
        solver.remove_batch({it->first});
        expected.erase(it->first);
        live.erase(it);
        expect_matches_anchor(solver, seeds, expected);
      } else {
        std::vector<std::uint64_t> doomed;
        std::vector<LinkId> seeds;
        std::bernoulli_distribution take(0.2);
        for (const auto& [id, links] : live) {
          if (!take(gen)) continue;
          doomed.push_back(id);
          seeds.insert(seeds.end(), links.begin(), links.end());
        }
        solver.remove_batch(doomed);
        for (const std::uint64_t id : doomed) {
          expected.erase(id);
          live.erase(id);
        }
        expect_matches_anchor(solver, seeds, expected);
      }
      for (int p = 0; p < 8; ++p) {
        const std::vector<LinkId> path = random_path();
        ASSERT_EQ(solver.probe_rate(path), solver.probe_rate_reference(path))
            << "probe diverged from reference at op " << op;
      }
    }
    resumed += solver.resumed_solves();
    full += solver.full_solves();
  }
  EXPECT_GT(resumed, full) << "the resumed path must carry most mutations";
  EXPECT_GT(full, 0u);
}

}  // namespace
}  // namespace dpjit::net
