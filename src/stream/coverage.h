// Per-(antenna, hour) coverage accounting for a multi-probe study.
//
// The paper's tensors silently assume every probe captured every hour; a
// real plant has dropout windows, quarantined feeds, and checkpoints whose
// tails were lost to corruption. The coverage mask records exactly which
// (antenna, hour) cells of the study tensor are backed by delivered data, so
// downstream analysis can exclude under-covered antennas and report what was
// lost instead of treating absence as zero traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace icn::stream {

/// Inclusive-exclusive hour range [first, last).
struct HourRange {
  std::int64_t first = 0;
  std::int64_t last = 0;
  bool operator==(const HourRange&) const = default;
};

/// Dense (antenna row x hour) boolean mask. Default-constructed masks are
/// empty; sized masks start fully uncovered.
class CoverageMask {
 public:
  CoverageMask() = default;
  CoverageMask(std::size_t rows, std::int64_t num_hours);

  [[nodiscard]] bool covered(std::size_t row, std::int64_t hour) const;

  /// Copies a per-hour bitmap (0/1 bytes, length num_hours) into one row.
  void set_row(std::size_t row, std::span<const std::uint8_t> hours_covered);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t num_hours() const { return num_hours_; }

  /// Fraction of hours covered for one antenna row, in [0, 1].
  [[nodiscard]] double row_fraction(std::size_t row) const;

  /// Maximal uncovered hour runs of one row, in ascending order.
  [[nodiscard]] std::vector<HourRange> gaps(std::size_t row) const;

  [[nodiscard]] std::size_t covered_cells() const;
  [[nodiscard]] bool complete() const;

  /// Row-major 0/1 bytes (rows * num_hours) — the kCoverage wire payload.
  [[nodiscard]] const std::vector<std::uint8_t>& bits() const { return bits_; }

  bool operator==(const CoverageMask&) const = default;

 private:
  std::size_t rows_ = 0;
  std::int64_t num_hours_ = 0;
  std::vector<std::uint8_t> bits_;  ///< rows * num_hours, row-major 0/1.
};

}  // namespace icn::stream
