#include "ml/matrix.h"

#include "util/error.h"

namespace icn::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  ICN_REQUIRE(data_.size() == rows_ * cols_, "matrix data size");
}

std::span<const double> Matrix::row(std::size_t r) const {
  ICN_REQUIRE(r < rows_, "matrix row index");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  ICN_REQUIRE(r < rows_, "matrix row index");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::select_rows(std::span<const std::size_t> idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    ICN_REQUIRE(idx[i] < rows_, "select_rows index");
    const auto src = row(idx[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

}  // namespace icn::ml
