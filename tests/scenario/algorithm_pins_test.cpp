// Per-algorithm pins: every registered algorithm (core::all_algorithms()) runs
// end-to-end under the conformance preset on three configurations and must
// reproduce the digest recorded here. The golden scenarios only cover the
// algorithms they name; these pins hold every first-phase rule, ready-set
// comparator and full-ahead planner byte-for-byte.
//
// The three configurations:
//   static   - paper/static-n200 (closed model, bottleneck network);
//   dynamic  - paper/dynamic-df20 with rescheduling on, which drives the
//              full-ahead remap of departed planned nodes and
//              recover_failed_tasks;
//   open     - contention/fair-static with a 3600 s mean inter-arrival
//              time. On the closed contention/fair-static config heft-la
//              and lookahead-ca give one digest (the whole plan is made
//              before any transfer is in flight), and so do dsmf and
//              dsmf-tc; open arrivals tell both pairs apart.
//
// Cost, serially on a 4-vCPU x86 VM: ~6 s in the release preset, ~57 s in
// debug, ~188 s under ASan + UBSan. Every row but the two lookahead ones
// takes ~0.2 s (release), ~1.4 s (debug) or 4-8 s (ASan). heft-la and
// lookahead-ca plan in O(tasks * nodes^2 * fanout) and take 1.1 / 1.3 s
// (release), 13 / 17 s (debug) and 42 / 55 s (ASan), inside the scenario
// tier's per-test timeout (150 s in the debug and asan presets). The rows
// heft and smf pin the full-ahead remap on the dynamic config.
//
// A pin change is legitimate only alongside an intentional semantic change
// to the algorithm it names.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/algorithm.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"

namespace dpjit::exp {
namespace {

struct Pin {
  const char* algorithm;
  std::uint64_t static_n200;
  std::uint64_t dynamic_df20;
  std::uint64_t open_fair;
};

constexpr Pin kPins[] = {
    {"dheft", 16515378411073753191ULL, 13628089698593308751ULL, 4370431524866830832ULL},
    {"heft", 2405537630331326357ULL, 17994173720360319455ULL, 13135095893447837218ULL},
    {"maxmin", 2074863625423368973ULL, 1865723484935575668ULL, 12063912468950768966ULL},
    {"minmin", 3097446196034938045ULL, 13026010392906177097ULL, 4177043689523044799ULL},
    {"dsdf", 10651200196932045925ULL, 13494361389407892757ULL, 6340287569855587909ULL},
    {"sufferage", 17001801807627751648ULL, 10185157635965323819ULL, 8761779681065668717ULL},
    {"dsmf", 12585600009723416711ULL, 15755347205952890295ULL, 16016718550656068064ULL},
    {"smf", 6930649027337225533ULL, 3068156163211726071ULL, 913800987400711961ULL},
    {"dsmf-fcfs", 3869230542604479362ULL, 15680786319066317075ULL, 6382174537215310846ULL},
    {"dheft-fcfs", 16380215445307815154ULL, 16966369975912301767ULL, 222439713182470176ULL},
    {"minmin-fcfs", 13463385502244131827ULL, 9303284550453056741ULL, 2282173196248539630ULL},
    {"maxmin-fcfs", 4967234715490852947ULL, 11675817623634230650ULL, 16555972210336432580ULL},
    {"sufferage-fcfs", 10030340735273581046ULL, 6776428566230249733ULL, 11411155089421346896ULL},
    {"heft-la", 12671989514489053010ULL, 3054736449305766303ULL, 13203386582392109575ULL},
    {"dsmf-ca", 9344499559596570996ULL, 17707866401532341607ULL, 11096471239426629092ULL},
    {"dsmf-tc", 13287032647684359921ULL, 3251636636620959963ULL, 7207151536443149580ULL},
    {"dheft-ca", 14755089570204243617ULL, 11361228541248526741ULL, 7021927623667210907ULL},
    {"lookahead-ca", 9902873804821720440ULL, 7597358611692530463ULL, 13766857274467162876ULL},
};

void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.algorithm; }

std::uint64_t digest_of(const char* scenario, const std::string& algorithm,
                        void (*adjust)(ExperimentConfig&)) {
  ExperimentConfig cfg = scenario_registry().at(scenario).config();
  cfg.algorithm = algorithm;
  adjust(cfg);
  return result_digest(run_experiment(conformance_preset(cfg)));
}

TEST(AlgorithmPins, CoverEveryRegisteredAlgorithm) {
  const auto names = core::all_algorithms();
  ASSERT_EQ(names.size(), std::size(kPins));
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(names[i], kPins[i].algorithm);
}

class AlgorithmPin : public ::testing::TestWithParam<Pin> {};

TEST_P(AlgorithmPin, MatchesPinnedDigests) {
  const Pin& pin = GetParam();
  EXPECT_EQ(digest_of("paper/static-n200", pin.algorithm, [](ExperimentConfig&) {}),
            pin.static_n200)
      << pin.algorithm << " on paper/static-n200";
  EXPECT_EQ(digest_of("paper/dynamic-df20", pin.algorithm,
                      [](ExperimentConfig& c) { c.reschedule = true; }),
            pin.dynamic_df20)
      << pin.algorithm << " on paper/dynamic-df20 with rescheduling";
  EXPECT_EQ(digest_of("contention/fair-static", pin.algorithm,
                      [](ExperimentConfig& c) { c.mean_interarrival_s = 3600.0; }),
            pin.open_fair)
      << pin.algorithm << " on contention/fair-static with open arrivals";
}

INSTANTIATE_TEST_SUITE_P(All, AlgorithmPin, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<Pin>& info) {
                           std::string name = info.param.algorithm;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dpjit::exp
