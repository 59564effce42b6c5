#include "ml/matrix.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace icn::ml {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  const Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.empty());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), 1.5);
    }
  }
}

TEST(MatrixTest, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, FromDataRowMajor) {
  const Matrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, FromDataRejectsWrongSize) {
  EXPECT_THROW(Matrix(2, 2, {1.0, 2.0}), icn::util::PreconditionError);
}

TEST(MatrixTest, RowViewIsWritable) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
  EXPECT_THROW(m.row(5), icn::util::PreconditionError);
}

TEST(MatrixTest, SelectRowsReorders) {
  const Matrix m(3, 2, {1, 1, 2, 2, 3, 3});
  const std::vector<std::size_t> idx = {2, 0};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
}

TEST(MatrixTest, SelectRowsAllowsDuplicates) {
  const Matrix m(2, 1, {5.0, 6.0});
  const std::vector<std::size_t> idx = {1, 1, 0};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 6.0);
}

TEST(MatrixTest, SelectRowsRejectsOutOfRange) {
  const Matrix m(2, 1);
  const std::vector<std::size_t> idx = {3};
  EXPECT_THROW(m.select_rows(idx), icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::ml
