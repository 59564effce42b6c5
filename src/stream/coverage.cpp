#include "stream/coverage.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace icn::stream {

CoverageMask::CoverageMask(std::size_t rows, std::int64_t num_hours)
    : rows_(rows), num_hours_(num_hours) {
  ICN_REQUIRE(rows > 0, "coverage mask needs rows");
  ICN_REQUIRE(num_hours > 0, "coverage mask needs hours");
  bits_.assign(rows * static_cast<std::size_t>(num_hours), 0);
}

bool CoverageMask::covered(std::size_t row, std::int64_t hour) const {
  ICN_REQUIRE(row < rows_, "coverage row index");
  ICN_REQUIRE(hour >= 0 && hour < num_hours_, "coverage hour index");
  return bits_[row * static_cast<std::size_t>(num_hours_) +
               static_cast<std::size_t>(hour)] != 0;
}

void CoverageMask::set_row(std::size_t row,
                           std::span<const std::uint8_t> hours_covered) {
  ICN_REQUIRE(row < rows_, "coverage row index");
  ICN_REQUIRE(hours_covered.size() == static_cast<std::size_t>(num_hours_),
              "coverage row bitmap size");
  for (std::size_t h = 0; h < hours_covered.size(); ++h) {
    ICN_REQUIRE(hours_covered[h] <= 1, "coverage bitmap must be 0/1");
    bits_[row * static_cast<std::size_t>(num_hours_) + h] = hours_covered[h];
  }
}

double CoverageMask::row_fraction(std::size_t row) const {
  ICN_REQUIRE(row < rows_, "coverage row index");
  const std::size_t hours = static_cast<std::size_t>(num_hours_);
  std::size_t covered_hours = 0;
  for (std::size_t h = 0; h < hours; ++h) {
    covered_hours += bits_[row * hours + h];
  }
  return static_cast<double>(covered_hours) / static_cast<double>(hours);
}

std::vector<HourRange> CoverageMask::gaps(std::size_t row) const {
  ICN_REQUIRE(row < rows_, "coverage row index");
  std::vector<HourRange> out;
  const std::size_t hours = static_cast<std::size_t>(num_hours_);
  std::int64_t run_start = -1;
  for (std::size_t h = 0; h < hours; ++h) {
    const bool hole = bits_[row * hours + h] == 0;
    if (hole && run_start < 0) run_start = static_cast<std::int64_t>(h);
    if (!hole && run_start >= 0) {
      out.push_back({run_start, static_cast<std::int64_t>(h)});
      run_start = -1;
    }
  }
  if (run_start >= 0) out.push_back({run_start, num_hours_});
  return out;
}

std::size_t CoverageMask::covered_cells() const {
  return std::accumulate(bits_.begin(), bits_.end(), std::size_t{0});
}

bool CoverageMask::complete() const {
  return std::all_of(bits_.begin(), bits_.end(),
                     [](std::uint8_t b) { return b != 0; });
}

}  // namespace icn::stream
