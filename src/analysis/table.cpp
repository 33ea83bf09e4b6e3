#include "analysis/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace manet::analysis {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MANET_CHECK(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  MANET_CHECK_MSG(cells.size() == headers_.size(), "row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string TextTable::fmt(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

std::string TextTable::to_string(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::string out;
  if (!title.empty()) {
    out += "== " + title + " ==\n";
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out += "  ";
      out += cells[c];
      out.append(widths[c] - cells[c].size(), ' ');
    }
    // Trim trailing spaces for clean diffs.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c ? 2 : 0);
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

}  // namespace manet::analysis
