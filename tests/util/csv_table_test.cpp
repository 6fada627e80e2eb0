#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/table_printer.hpp"

namespace dpjit::util {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) { EXPECT_EQ(csv_escape("hello"), "hello"); }

TEST(CsvEscape, CommaTriggersQuotes) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(CsvEscape, QuotesDoubled) { EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\""); }

TEST(CsvEscape, NewlineQuoted) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST(CsvWriter, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"h1", "h2"});
  csv.row({"1", "x,y"});
  EXPECT_EQ(os.str(), "h1,h2\n1,\"x,y\"\n");
}

TEST(CsvWriter, NumFormatsRoundTrip) {
  EXPECT_EQ(CsvWriter::num(static_cast<std::int64_t>(42)), "42");
  EXPECT_EQ(CsvWriter::num(2.5), "2.5");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, separator and two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Numeric cells right-aligned: "1" ends the 5-wide "value" column.
  // (Built with += : "lit" + std::string trips GCC 12's -Wrestrict, GCC bug 105329.)
  std::string row = "a";
  row += std::string(11, ' ');
  row += "1\n";
  EXPECT_NE(out.find(row), std::string::npos);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  // The missing cells print as blanks of their columns' widths (1 and 1).
  std::string row = "only";
  row += std::string(6, ' ');
  row += '\n';
  EXPECT_NE(os.str().find(row), std::string::npos);
}

TEST(TablePrinter, FmtSignificantDigits) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 3), "3.14");
  EXPECT_EQ(TablePrinter::fmt(120000.0, 4), "1.2e+05");
}

}  // namespace
}  // namespace dpjit::util
