#include "util/table_printer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dpjit::util {
namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  auto print_cell = [&](const std::string& s, std::size_t c, bool right) {
    if (right) {
      os << std::string(width[c] - s.size(), ' ') << s;
    } else {
      os << s << std::string(width[c] - s.size(), ' ');
    }
  };
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << "  ";
    print_cell(headers_[c], c, false);
  }
  os << '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << "  ";
      print_cell(row[c], c, looks_numeric(row[c]));
    }
    os << '\n';
  }
}

}  // namespace dpjit::util
