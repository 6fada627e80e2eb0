// Minimal key=value configuration store with command-line override support.
//
// Experiment binaries accept `--key=value` arguments; this class parses them,
// exposes typed getters with defaults, and records which keys were read so the
// binaries can reject the ones nothing reads.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dpjit::util {

/// A flat string->string configuration with typed accessors.
class Config {
 public:
  Config() = default;

  /// Parses `--key=value` or `--flag` (stored as "true") arguments.
  /// Non `--` arguments are collected as positional. Throws std::invalid_argument
  /// on malformed input (e.g. "--" alone).
  static Config from_args(int argc, const char* const* argv);

  /// Sets (or overwrites) a key.
  void set(std::string key, std::string value);

  /// True if the key is present. Asking counts as reading it (unused_keys).
  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters; return `fallback` when the key is absent.
  /// Throw std::invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  /// The integer getter also throws std::out_of_range when the value does
  /// not fit T, the type of `fallback`.
  template <typename T>
  [[nodiscard]] T get_int(std::string_view key, T fallback) const {
    static_assert(std::is_integral_v<T>);
    const auto v = raw(key);
    if (!v) return fallback;
    const std::int64_t i = parse_int(key, *v);
    if (!std::in_range<T>(i)) {
      throw std::out_of_range("config key '" + std::string(key) + "' is out of range: " + *v);
    }
    return static_cast<T>(i);
  }

  /// Positional (non --key=value) command-line arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were set but never read by any getter or has(): typo detection.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(std::string_view key) const;
  /// The whole of `text` as an int64; throws when it is not one.
  [[nodiscard]] static std::int64_t parse_int(std::string_view key, const std::string& text);

  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string, std::less<>> read_keys_;
};

}  // namespace dpjit::util
