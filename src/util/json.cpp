#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dpjit::util {
namespace {

/// Escapes a string for inclusion in a JSON document (without quotes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (wrote_root_) throw std::logic_error("JsonWriter: multiple root values");
    wrote_root_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject && !pending_key_) {
    throw std::logic_error("JsonWriter: value in object without key");
  }
  if (stack_.back() == Frame::kArray) {
    if (!first_in_frame_.back()) os_ << ',';
    first_in_frame_.back() = false;
  }
  pending_key_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || pending_key_) {
    throw std::logic_error("JsonWriter: mismatched end_object");
  }
  stack_.pop_back();
  first_in_frame_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("JsonWriter: mismatched end_array");
  }
  stack_.pop_back();
  first_in_frame_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Frame::kObject || pending_key_) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  if (!first_in_frame_.back()) os_ << ',';
  first_in_frame_.back() = false;
  os_ << '"' << json_escape(k) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no Infinity/NaN
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

}  // namespace dpjit::util
