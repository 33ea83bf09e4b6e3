#pragma once

#include <iosfwd>
#include <string>
#include <vector>

/// \file csv.hpp
/// Minimal CSV emission for experiment campaigns (examples write sweep
/// results to disk for external plotting). Values are quoted only when they
/// contain separators/quotes, per RFC 4180.

namespace manet::analysis {

class CsvWriter {
 public:
  /// Writes the header row immediately.
  CsvWriter(std::ostream& os, std::vector<std::string> columns);

  void write_row(const std::vector<std::string>& cells);

  std::size_t rows_written() const { return rows_; }

 private:
  static std::string escape(const std::string& cell);

  std::ostream& os_;
  std::size_t arity_;
  std::size_t rows_ = 0;
};

}  // namespace manet::analysis
