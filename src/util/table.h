// Fixed-width text table printing for bench/example output.
//
// Every figure/table bench prints its reproduced rows through TextTable so
// the output is stable, aligned, and diff-able across runs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace icn::util {

/// Accumulates rows of string cells and prints them with aligned columns:
/// the first column left-aligned, the rest right-aligned.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; missing trailing cells render empty, extra cells throw.
  void add_row(std::vector<std::string> cells);

  /// Renders the table (header, separator, rows) to a string.
  [[nodiscard]] std::string to_string() const;

  /// Streams to_string() to `out`.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals ("%.*f").
[[nodiscard]] std::string fmt_double(double v, int decimals = 3);

/// Formats a fraction in [0,1] as "12.3%".
[[nodiscard]] std::string fmt_percent(double fraction, int decimals = 1);

}  // namespace icn::util
