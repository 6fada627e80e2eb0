// Column-aligned plain-text tables: the figure drivers print the same
// rows/series the paper's figures plot, and this keeps them readable.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace dpjit::util {

/// Accumulates rows of string cells and prints them with aligned columns.
/// Numeric cells (parsing as double) are right-aligned, text left-aligned.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row. Rows shorter than the header are padded with "".
  void add_row(std::vector<std::string> cells);

  /// Formats a double with `digits` significant digits.
  static std::string fmt(double v, int digits = 6);

  /// Prints the table (headers, separator, rows) to `os`.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dpjit::util
