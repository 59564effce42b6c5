// Small CSV reader/writer used to export the processed datasets
// (the paper promises releasing its processed service-consumption data;
// examples/export_dataset reproduces that deliverable).
//
// Supports RFC-4180-style quoting: fields containing comma, quote or newline
// are quoted, embedded quotes are doubled.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace icn::util {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Writes CSV rows with proper quoting.
class CsvWriter {
 public:
  /// Writes to the given stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out);

  /// Writes one row (quoting fields as needed) followed by '\n'.
  void write_row(const CsvRow& fields);

 private:
  std::ostream* out_;
};

/// Escapes a single CSV field per RFC 4180.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Parses a full CSV document (handles quoted fields and embedded newlines).
/// Throws PreconditionError on unterminated quotes.
[[nodiscard]] std::vector<CsvRow> parse_csv(const std::string& text);

}  // namespace icn::util
