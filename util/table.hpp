// Column-aligned console tables with optional CSV export.
//
// Every bench prints one Table per measured sweep and, when R2D_CSV is
// set, mirrors it to `<prefix><tag>.csv` for plotting.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace r2d::util {

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    cells.resize(columns_.size());
    rows_.push_back(std::move(cells));
  }

  /// Format a number with fixed precision (default 3 digits).
  static std::string num(double v, int precision = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return std::string(buf);
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    print_row(os, columns_, width);
    std::string rule;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      rule.append(width[c] + (c + 1 < columns_.size() ? 2 : 0), '-');
    }
    os << rule << "\n";
    for (const auto& row : rows_) print_row(os, row, width);
  }

  /// Write the table as CSV. Returns false if the file cannot be opened.
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    write_csv_line(out, columns_);
    for (const auto& row : rows_) write_csv_line(out, row);
    return static_cast<bool>(out);
  }

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  static void print_row(std::ostream& os, const std::vector<std::string>& row,
                        const std::vector<std::size_t>& width) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(width[c] - row[c].size() + 2, ' ');
      }
    }
    os << "\n";
  }

  static void write_csv_line(std::ostream& os,
                             const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      // Cells are bench-generated identifiers/numbers; quote only if needed.
      if (row[c].find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (const char ch : row[c]) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << row[c];
      }
    }
    os << "\n";
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace r2d::util
