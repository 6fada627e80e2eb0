// Minimal key=value configuration store with command-line override support.
//
// Experiment binaries accept `--key=value` arguments; this class parses them,
// exposes typed getters with defaults, and records which keys were read so the
// binaries can reject the ones nothing reads.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
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

  /// Parses a whitespace/newline separated "key=value" text block (supports
  /// '#' comments). Used by tests and for reading config files.
  static Config from_string(std::string_view text);

  /// Sets (or overwrites) a key.
  void set(std::string key, std::string value);

  /// True if the key is present. Asking counts as reading it (unused_keys).
  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters; return `fallback` when the key is absent.
  /// Throw std::invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Positional (non --key=value) command-line arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were set but never read by any getter or has(): typo detection.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string, std::less<>> read_keys_;
};

}  // namespace dpjit::util
