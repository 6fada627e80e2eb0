#include "util/config.hpp"

#include <gtest/gtest.h>

namespace dpjit::util {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValueArgs) {
  auto cfg = parse({"--nodes=100", "--algorithm=dsmf"});
  EXPECT_EQ(cfg.get_int("nodes", 0), 100);
  EXPECT_EQ(cfg.get_string("algorithm", ""), "dsmf");
}

TEST(Config, FlagWithoutValueIsTrue) {
  auto cfg = parse({"--verbose"});
  EXPECT_TRUE(cfg.get_bool("verbose", false));
}

TEST(Config, PositionalArgsCollected) {
  auto cfg = parse({"first", "--k=v", "second"});
  ASSERT_EQ(cfg.positional().size(), 2u);
  EXPECT_EQ(cfg.positional()[0], "first");
  EXPECT_EQ(cfg.positional()[1], "second");
}

TEST(Config, FallbacksWhenAbsent) {
  auto cfg = parse({});
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

TEST(Config, ThrowsOnMalformedNumber) {
  auto cfg = parse({"--n=abc"});
  EXPECT_THROW((void)cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("n", 0), std::invalid_argument);
}

TEST(Config, ThrowsOnMalformedBool) {
  auto cfg = parse({"--b=maybe"});
  EXPECT_THROW((void)cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, BoolSynonyms) {
  auto cfg = parse({"--a=1", "--b=yes", "--c=off", "--d=false"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_FALSE(cfg.get_bool("c", true));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, ThrowsOnBareDashes) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(Config, ThrowsOnEmptyKey) {
  const char* argv[] = {"prog", "--=5"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(Config, UnusedKeysTracked) {
  auto cfg = parse({"--used=1", "--unused=2", "--checked=3"});
  (void)cfg.get_int("used", 0);
  EXPECT_TRUE(cfg.has("checked"));  // asking for a key counts as reading it
  EXPECT_FALSE(cfg.has("absent"));
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(Config, LaterValueOverwrites) {
  auto cfg = parse({"--k=1", "--k=2"});
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

}  // namespace
}  // namespace dpjit::util
