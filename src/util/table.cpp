#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/error.h"

namespace icn::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ICN_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  ICN_REQUIRE(cells.size() <= headers_.size(), "row wider than header");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_cell = [&](std::string& out, const std::string& cell,
                       std::size_t c) {
    const std::size_t pad = widths[c] - cell.size();
    if (c != 0) out.append(pad, ' ');
    out += cell;
    if (c == 0) out.append(pad, ' ');
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) out += "  ";
    emit_cell(out, headers_[c], c);
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) out += "  ";
    out.append(widths[c], '-');
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c != 0) out += "  ";
      emit_cell(out, row[c], c);
    }
    out += '\n';
  }
  return out;
}

void TextTable::print(std::ostream& out) const { out << to_string(); }

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_percent(double fraction, int decimals) {
  return fmt_double(fraction * 100.0, decimals) + "%";
}

}  // namespace icn::util
