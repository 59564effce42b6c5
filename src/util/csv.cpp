#include "util/csv.h"

#include <ostream>

#include "util/error.h"

namespace icn::util {

CsvWriter::CsvWriter(std::ostream& out) : out_(&out) {}

void CsvWriter::write_row(const CsvRow& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) *out_ << ',';
    *out_ << csv_escape(fields[i]);
  }
  *out_ << '\n';
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::vector<CsvRow> parse_csv(const std::string& text) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool row_started = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_started = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        row_started = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_started || !field.empty()) {
          row.push_back(std::move(field));
          field.clear();
          rows.push_back(std::move(row));
          row.clear();
        }
        row_started = false;
        break;
      default:
        field += c;
        row_started = true;
        break;
    }
  }
  ICN_REQUIRE(!in_quotes, "unterminated quoted CSV field");
  if (row_started || !field.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace icn::util
