#pragma once

#include <string>
#include <vector>

/// \file table.hpp
/// Fixed-width ASCII tables — the output format of every bench binary. Each
/// reproduced table from EXPERIMENTS.md is printed through this class so
/// rows stay machine-greppable (single header line, aligned columns).

namespace manet::analysis {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with a title line, aligned columns and a rule under the header.
  std::string to_string(const std::string& title = {}) const;

  /// Format helper used across benches.
  static std::string fmt(double value, int precision = 5);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace manet::analysis
