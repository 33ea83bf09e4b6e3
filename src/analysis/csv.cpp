#include "analysis/csv.hpp"

#include <ostream>

#include "common/check.hpp"

namespace manet::analysis {

CsvWriter::CsvWriter(std::ostream& os, std::vector<std::string> columns)
    : os_(os), arity_(columns.size()) {
  MANET_CHECK(arity_ > 0);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c) os_ << ',';
    os_ << escape(columns[c]);
  }
  os_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  MANET_CHECK_MSG(cells.size() == arity_, "CSV row arity mismatch");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) os_ << ',';
    os_ << escape(cells[c]);
  }
  os_ << '\n';
  ++rows_;
}

}  // namespace manet::analysis
