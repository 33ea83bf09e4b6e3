#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/table.hpp"

namespace manet::analysis {
namespace {

TEST(TextTable, RendersHeaderRuleAndRows) {
  TextTable table({"n", "phi", "gamma"});
  table.add_row({"128", "1.5", "2.5"});
  table.add_row({"256", "3.0", "4.0"});
  const auto text = table.to_string("demo");
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("128"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  // Rows and header + rule + title.
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 5);
}

TEST(TextTable, ColumnsAreAligned) {
  TextTable table({"a", "bbbb"});
  table.add_row({"xxxxxx", "y"});
  const auto text = table.to_string();
  std::istringstream iss(text);
  std::string header, rule, row;
  std::getline(iss, header);
  std::getline(iss, rule);
  std::getline(iss, row);
  // The second column starts at the same offset in header and row.
  EXPECT_EQ(header.find("bbbb"), row.find("y"));
}

TEST(TextTable, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(TextTable::fmt(1234567.0, 3), "1.23e+06");
}

TEST(TextTableDeath, RowArityMismatch) {
  TextTable table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only one"}), "arity");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"n", "value"});
  csv.write_row({"10", "3.5"});
  csv.write_row({"20", "7.25"});
  EXPECT_EQ(os.str(), "n,value\n10,3.5\n20,7.25\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os, {"text"});
  csv.write_row({"hello, world"});
  csv.write_row({"say \"hi\""});
  EXPECT_NE(os.str().find("\"hello, world\""), std::string::npos);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvWriterDeath, ArityMismatch) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_DEATH(csv.write_row({"1"}), "arity");
}

}  // namespace
}  // namespace manet::analysis
