// Dense row-major matrix of double — the feature-matrix currency of the
// analysis pipeline (antennas x services).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace icn::ml {

/// Dense row-major matrix of double.
///
/// Rows are samples (antennas), columns are features (mobile services).
/// Row views check their index with ICN_REQUIRE; element access does not.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from row-major data. Requires data.size() == rows * cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Unchecked element access (hot loops).
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// View of row r. Requires r < rows().
  [[nodiscard]] std::span<const double> row(std::size_t r) const;
  [[nodiscard]] std::span<double> row(std::size_t r);

  /// Whole storage, row-major.
  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

  /// New matrix containing the given rows (in the given order).
  [[nodiscard]] Matrix select_rows(std::span<const std::size_t> idx) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace icn::ml
