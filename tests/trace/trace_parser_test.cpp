// exp trace importer: fixture-driven SWF/GWA parsing, deterministic
// normalization of malformed rows, the canonical-SWF round trip, and a
// fuzz-style mutation loop asserting the parser either parses or throws —
// never crashes, never loops — on arbitrarily damaged input.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/sample_trace.hpp"
#include "exp/trace_importer.hpp"
#include "util/rng.hpp"

namespace dpjit::exp {
namespace {

std::string fixture(const std::string& name) {
  return std::string(DPJIT_TRACE_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceParser, ParsesBundledSwfSample) {
  const auto wl = parse_trace_text(sample_swf_trace());
  EXPECT_EQ(wl.format, TraceFormat::kSwf);
  ASSERT_EQ(wl.jobs.size(), 48u);
  EXPECT_EQ(wl.stats.accepted, 48u);
  EXPECT_EQ(wl.stats.skipped_missing_submit, 0u);
  EXPECT_EQ(wl.stats.skipped_missing_runtime, 0u);
  EXPECT_GT(wl.stats.comment_lines, 0u);
  EXPECT_DOUBLE_EQ(wl.jobs.front().submit_s, 0.0);
  EXPECT_DOUBLE_EQ(wl.span_s, 28900.0);
  EXPECT_EQ(wl.jobs.front().owner, 101);
  EXPECT_EQ(wl.jobs[6].procs, 8);  // job 7: the 15300 s 8-proc run
  EXPECT_DOUBLE_EQ(wl.jobs[6].runtime_s, 15300.0);
}

TEST(TraceParser, BundledFileMatchesEmbeddedSample) {
  // tests/data/sample.swf must stay byte-for-byte the embedded constant.
  EXPECT_EQ(read_file(fixture("sample.swf")), std::string(sample_swf_trace()));
}

TEST(TraceParser, ParsesBundledGwaSample) {
  const auto wl = parse_trace_text(sample_gwa_trace());
  EXPECT_EQ(wl.format, TraceFormat::kGwa);
  ASSERT_EQ(wl.jobs.size(), 24u);
  EXPECT_EQ(wl.jobs.front().owner, 11);
  EXPECT_DOUBLE_EQ(wl.span_s, 21700.0);
}

TEST(TraceParser, AutoDetectsGwaFromFile) {
  const auto wl = load_trace(fixture("valid.gwf"));
  EXPECT_EQ(wl.format, TraceFormat::kGwa);
  ASSERT_EQ(wl.jobs.size(), 6u);
  EXPECT_EQ(wl.jobs[0].owner, 7);
  EXPECT_DOUBLE_EQ(wl.jobs[0].submit_s, 0.0);  // shifted: raw submit was 100
  EXPECT_DOUBLE_EQ(wl.span_s, 2400.0);         // 2500 - 100
}

TEST(TraceParser, CommentHeavyAndShortRows) {
  const auto wl = load_trace(fixture("comments.swf"));
  EXPECT_EQ(wl.format, TraceFormat::kSwf);
  ASSERT_EQ(wl.jobs.size(), 3u);
  EXPECT_EQ(wl.stats.comment_lines, 7u);
  // Row 3 stops after the processor count: the user column is missing, so
  // the owner defaults to 0 without counting as a normalization.
  EXPECT_EQ(wl.jobs[2].owner, 0);
  EXPECT_EQ(wl.stats.normalized_owner, 0u);
}

TEST(TraceParser, TruncatedRowThrowsWithLineNumber) {
  try {
    (void)load_trace(fixture("truncated.swf"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

TEST(TraceParser, NonNumericFieldThrowsWithLineNumber) {
  try {
    (void)load_trace(fixture("nonnumeric.swf"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("non-numeric"), std::string::npos) << e.what();
  }
}

TEST(TraceParser, OutOfOrderArrivalsSortedStably) {
  const auto wl = load_trace(fixture("out_of_order.swf"));
  ASSERT_EQ(wl.jobs.size(), 5u);
  EXPECT_EQ(wl.stats.out_of_order, 2u);  // rows 3 and 5 jump backwards
  for (std::size_t i = 1; i < wl.jobs.size(); ++i) {
    EXPECT_LE(wl.jobs[i - 1].submit_s, wl.jobs[i].submit_s);
  }
  // Sorted by (submit, id): 200, 500, 700, 900, 1200 -> ids 3 1 5 2 4.
  EXPECT_EQ(wl.jobs[0].id, 3);
  EXPECT_EQ(wl.jobs[4].id, 4);
  EXPECT_DOUBLE_EQ(wl.jobs[0].submit_s, 0.0);  // shifted by 200
  EXPECT_DOUBLE_EQ(wl.span_s, 1000.0);
}

TEST(TraceParser, NormalizationRules) {
  const auto wl = load_trace(fixture("zero_runtime.swf"));
  // 5 rows: zero runtime kept+clamped, runtime -1 skipped, submit -1
  // skipped, procs 0 kept+clamped, user -1 kept as owner 0.
  ASSERT_EQ(wl.jobs.size(), 3u);
  EXPECT_EQ(wl.stats.accepted, 3u);
  EXPECT_EQ(wl.stats.skipped_missing_runtime, 1u);
  EXPECT_EQ(wl.stats.skipped_missing_submit, 1u);
  EXPECT_EQ(wl.stats.normalized_zero_runtime, 1u);
  EXPECT_EQ(wl.stats.normalized_procs, 1u);
  EXPECT_EQ(wl.stats.normalized_owner, 1u);
  EXPECT_DOUBLE_EQ(wl.jobs[0].runtime_s, 1.0);  // clamp floor
  EXPECT_EQ(wl.jobs[1].procs, 1);
  EXPECT_EQ(wl.jobs[2].owner, 0);
}

TEST(TraceParser, EmptyInputYieldsEmptyWorkload) {
  const auto wl = parse_trace_text("");
  EXPECT_TRUE(wl.jobs.empty());
  EXPECT_DOUBLE_EQ(wl.span_s, 0.0);
  const auto comments = parse_trace_text("; nothing but commentary\n;\n");
  EXPECT_TRUE(comments.jobs.empty());
  EXPECT_EQ(comments.stats.comment_lines, 2u);
}

TEST(TraceParser, SwfRoundTrip) {
  // A raw log that needs every normalization: a late first arrival, rows out
  // of order, a zero runtime, zero procs and a missing owner.
  const auto raw = parse_trace_text(
      "; raw log\n"
      "1 500 0 300 2 -1 -1 2 -1 -1 1 7 1 -1 1 -1 -1 -1\n"
      "2 200 0 0 1 -1 -1 1 -1 -1 1 8 1 -1 1 -1 -1 -1\n"
      "3 900 0 60 0 -1 -1 1 -1 -1 1 -1 1 -1 1 -1 -1 -1\n");
  // The same workload written back as canonical SWF: shifted, sorted,
  // clamped, with -1 in every column a TraceJob does not carry.
  constexpr std::string_view kCanonical =
      "; normalized\n"
      "2 0 -1 1 1 -1 -1 -1 -1 -1 1 8 -1 -1 -1 -1 -1 -1\n"
      "1 300 -1 300 2 -1 -1 -1 -1 -1 1 7 -1 -1 -1 -1 -1 -1\n"
      "3 700 -1 60 1 -1 -1 -1 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  const auto canonical = parse_trace_text(kCanonical);
  // The canonical form is a fixed point: parsing it normalizes nothing.
  EXPECT_EQ(canonical.stats.out_of_order, 0u);
  EXPECT_EQ(canonical.stats.normalized_zero_runtime, 0u);
  EXPECT_EQ(canonical.stats.normalized_procs, 0u);
  EXPECT_EQ(canonical.stats.normalized_owner, 0u);
  // GWA rows with the same leading 12 columns parse to the same model.
  const auto gwa = parse_trace_text(
      "# normalized\n"
      "2 0 -1 1 1 -1 -1 -1 -1 -1 1 8 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n"
      "1 300 -1 300 2 -1 -1 -1 -1 -1 1 7 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n"
      "3 700 -1 60 1 -1 -1 -1 -1 -1 1 0 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n");
  EXPECT_EQ(gwa.format, TraceFormat::kGwa);
  for (const auto* again : {&canonical, &gwa}) {
    ASSERT_EQ(again->jobs.size(), raw.jobs.size());
    for (std::size_t i = 0; i < raw.jobs.size(); ++i) {
      EXPECT_EQ(again->jobs[i].id, raw.jobs[i].id) << i;
      EXPECT_DOUBLE_EQ(again->jobs[i].submit_s, raw.jobs[i].submit_s) << i;
      EXPECT_DOUBLE_EQ(again->jobs[i].runtime_s, raw.jobs[i].runtime_s) << i;
      EXPECT_EQ(again->jobs[i].procs, raw.jobs[i].procs) << i;
      EXPECT_EQ(again->jobs[i].owner, raw.jobs[i].owner) << i;
    }
  }
}

TEST(TraceParser, DeterministicAcrossCalls) {
  const auto a = parse_trace_text(sample_swf_trace());
  const auto b = parse_trace_text(sample_swf_trace());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_DOUBLE_EQ(a.jobs[i].submit_s, b.jobs[i].submit_s);
  }
}

// Fuzz-style mutation loop: take the valid sample, apply seeded random
// mutations (byte flips, truncations, line deletions/duplications, token
// swaps) and require the parser to either return a workload or throw
// std::runtime_error. Anything else — a crash, another exception type — is a
// bug. Deterministic: fixed seed, so a failure reproduces.
TEST(TraceParser, FuzzMutationLoopNeverCrashes) {
  const std::string base(sample_swf_trace());
  util::Rng rng(0xFEEDFACE);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.index(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.index(5)) {
        case 0: {  // flip a byte to random printable
          const std::size_t pos = rng.index(mutated.size());
          mutated[pos] = static_cast<char>(' ' + rng.index(95));
          break;
        }
        case 1:  // truncate
          mutated.resize(rng.index(mutated.size()));
          break;
        case 2: {  // delete a line
          const std::size_t start = rng.index(mutated.size());
          const std::size_t nl = mutated.find('\n', start);
          const std::size_t prev = mutated.rfind('\n', start);
          const std::size_t from = prev == std::string::npos ? 0 : prev;
          mutated.erase(from, (nl == std::string::npos ? mutated.size() : nl) - from);
          break;
        }
        case 3: {  // duplicate a chunk
          const std::size_t pos = rng.index(mutated.size());
          const std::size_t len = std::min<std::size_t>(rng.index(40) + 1, mutated.size() - pos);
          mutated.insert(pos, mutated.substr(pos, len));
          break;
        }
        default: {  // inject a hostile token
          static constexpr const char* kTokens[] = {"-1", "NaN", "inf", "1e309", "--", "\t\t"};
          const std::size_t pos = rng.index(mutated.size());
          mutated.insert(pos, kTokens[rng.index(6)]);
          break;
        }
      }
      if (mutated.empty()) mutated.assign(1, ' ');
    }
    try {
      const auto wl = parse_trace_text(mutated);
      // Whatever survived must satisfy the normalization invariants.
      for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
        ASSERT_GE(wl.jobs[i].submit_s, 0.0);
        ASSERT_GT(wl.jobs[i].runtime_s, 0.0);
        ASSERT_GE(wl.jobs[i].procs, 1);
        ASSERT_GE(wl.jobs[i].owner, 0);
        if (i > 0) {
          ASSERT_LE(wl.jobs[i - 1].submit_s, wl.jobs[i].submit_s);
        }
      }
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;  // the documented failure mode
    }
  }
  // The loop must exercise both outcomes, or the mutations are too tame /
  // too savage to mean anything.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 50);
}

}  // namespace
}  // namespace dpjit::exp
