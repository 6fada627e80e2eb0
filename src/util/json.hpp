// Minimal streaming JSON writer for machine-readable experiment output.
// Emits canonical, valid JSON (escaped strings, no trailing commas); the
// writer tracks nesting so misuse (e.g. closing an object inside an array)
// throws instead of producing garbage.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dpjit::util {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  /// --- containers ---
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key (must be inside an object, before a value).
  JsonWriter& key(std::string_view k);

  /// --- values ---
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  enum class Frame { kObject, kArray };
  void before_value();

  std::ostream& os_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool pending_key_ = false;
  bool wrote_root_ = false;
};

}  // namespace dpjit::util
