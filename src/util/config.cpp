#include "util/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace dpjit::util {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) s.remove_suffix(1);
  return s;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      if (arg.empty()) throw std::invalid_argument("bare '--' argument");
      auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        cfg.set(std::string(arg), "true");
      } else {
        auto key = arg.substr(0, eq);
        if (key.empty()) throw std::invalid_argument("empty key in argument: --" + std::string(arg));
        cfg.set(std::string(key), std::string(arg.substr(eq + 1)));
      }
    } else {
      cfg.positional_.emplace_back(arg);
    }
  }
  return cfg;
}

Config Config::from_string(std::string_view text) {
  Config cfg;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto nl = text.find('\n', pos);
    std::string_view line = text.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = (nl == std::string_view::npos) ? text.size() : nl + 1;
    if (auto hash = line.find('#'); hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string_view::npos) throw std::invalid_argument("config line missing '=': " + std::string(line));
    auto key = trim(line.substr(0, eq));
    auto value = trim(line.substr(eq + 1));
    if (key.empty()) throw std::invalid_argument("config line with empty key: " + std::string(line));
    cfg.set(std::string(key), std::string(value));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::has(std::string_view key) const { return raw(key).has_value(); }

std::optional<std::string> Config::raw(std::string_view key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_keys_.insert(it->first);
  return it->second;
}

std::string Config::get_string(std::string_view key, std::string_view fallback) const {
  auto v = raw(key);
  return v ? *v : std::string(fallback);
}

double Config::get_double(std::string_view key, double fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("config key '" + std::string(key) + "' is not a double: " + *v);
  }
  return d;
}

std::int64_t Config::get_int(std::string_view key, std::int64_t fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  long long i = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("config key '" + std::string(key) + "' is not an integer: " + *v);
  }
  return static_cast<std::int64_t>(i);
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("config key '" + std::string(key) + "' is not a bool: " + *v);
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (read_keys_.find(k) == read_keys_.end()) out.push_back(k);
  }
  return out;
}

}  // namespace dpjit::util
