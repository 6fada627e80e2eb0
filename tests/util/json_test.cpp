#include "util/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace dpjit::util {
namespace {

/// `{"<key>":"<value>"}` as JsonWriter writes it.
std::string object_with(std::string_view key, std::string_view value) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object().kv(key, value).end_object();
  return os.str();
}

TEST(JsonWriter, PassesPlainText) {
  EXPECT_EQ(object_with("hello", "hello"), R"({"hello":"hello"})");
}

TEST(JsonWriter, EscapesSpecialsInKeysAndValues) {
  // A quote, a backslash, \n, \t and a control character, each in a key and
  // in a value.
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"a\"b", R"(a\"b)"},
      {"a\\b", R"(a\\b)"},
      {"a\nb\tc", R"(a\nb\tc)"},
      {std::string_view("\x01", 1), R"(\u0001)"},
  };
  for (const auto& [raw, escaped] : cases) {
    const std::string e(escaped);
    EXPECT_EQ(object_with(raw, "v"), "{\"" + e + "\":\"v\"}");
    EXPECT_EQ(object_with("k", raw), "{\"k\":\"" + e + "\"}");
  }
}

TEST(JsonWriter, FlatObject) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object().kv("name", "dsmf").kv("act", 123.5).kv("n", std::int64_t{42}).kv("ok", true)
      .end_object();
  EXPECT_EQ(os.str(), R"({"name":"dsmf","act":123.5,"n":42,"ok":true})");
}

TEST(JsonWriter, NestedArrays) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_array();
  j.begin_array().value(1.0).value(2.0).end_array();
  j.begin_array().end_array();
  j.end_array();
  EXPECT_EQ(os.str(), "[[1,2],[]]");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(os.str(), "[null]");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  {
    JsonWriter j(os);
    j.begin_object();
    EXPECT_THROW(j.value(1.0), std::logic_error);  // value without key
  }
  {
    JsonWriter j(os);
    EXPECT_THROW(j.key("x"), std::logic_error);  // key outside object
  }
  {
    JsonWriter j(os);
    j.begin_array();
    EXPECT_THROW(j.end_object(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter j(os);
    j.value(1.0);
    EXPECT_THROW(j.value(2.0), std::logic_error);  // two roots
  }
}

TEST(JsonWriter, KeysEscaped) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object().kv("we\"ird", "v").end_object();
  EXPECT_EQ(os.str(), R"({"we\"ird":"v"})");
}

}  // namespace
}  // namespace dpjit::util
