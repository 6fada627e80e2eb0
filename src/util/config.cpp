#include "util/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace dpjit::util {

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

std::int64_t Config::parse_int(std::string_view key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long i = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("config key '" + std::string(key) + "' is not an integer: " + text);
  }
  if (errno == ERANGE) {
    throw std::out_of_range("config key '" + std::string(key) + "' is out of range: " + text);
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
