#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(StatsTest, MeanBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_THROW(mean(std::vector<double>{}), PreconditionError);
}

TEST(StatsTest, VariancePopulation) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
}

TEST(StatsTest, StddevSample) {
  const std::vector<double> xs = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
}

TEST(StatsTest, QuantileInterpolation) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_THROW(quantile(xs, 1.5), PreconditionError);
}

TEST(StatsTest, QuantileIgnoresInputOrder) {
  const std::vector<double> a = {5.0, 1.0, 3.0, 2.0, 4.0};
  const std::vector<double> b = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(a, 0.5), quantile(b, 0.5));
  EXPECT_DOUBLE_EQ(quantile(a, 0.9), quantile(b, 0.9));
}

TEST(StatsTest, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 5.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 5.0);
}

TEST(StatsTest, KahanSumIsAccurate) {
  // 1 + 1e-16 repeated: naive summation loses the small terms.
  std::vector<double> xs(10000001, 1e-16);
  xs[0] = 1.0;
  EXPECT_NEAR(sum(xs), 1.0 + 1e-9, 1e-15);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  const std::vector<double> zs = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSideIsZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(HistogramTest, CountsAndClamping) {
  const std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const Histogram h = make_histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.counts.size(), 2u);
  // -1 clamps into bin 0; 2.0 clamps into bin 1; 0.5 goes to bin 1.
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 3u);
  EXPECT_EQ(h.counts[0] + h.counts[1], 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_left(1), 0.5);
}

TEST(HistogramTest, RejectsBadParameters) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(make_histogram(xs, 0.0, 1.0, 0), PreconditionError);
  EXPECT_THROW(make_histogram(xs, 1.0, 1.0, 4), PreconditionError);
}

TEST(AriTest, IdenticalPartitionsScoreOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
}

TEST(AriTest, RelabeledPartitionsScoreOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const std::vector<int> b = {5, 5, 3, 3, 9, 9};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(AriTest, IndependentPartitionsScoreNearZero) {
  // A checkerboard split against a half split.
  std::vector<int> a(40), b(40);
  for (int i = 0; i < 40; ++i) {
    a[static_cast<std::size_t>(i)] = i % 2;
    b[static_cast<std::size_t>(i)] = i < 20 ? 0 : 1;
  }
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.0, 0.06);
}

TEST(AriTest, RejectsSizeMismatch) {
  const std::vector<int> a = {0, 1};
  const std::vector<int> b = {0};
  EXPECT_THROW(adjusted_rand_index(a, b), PreconditionError);
}

}  // namespace
}  // namespace icn::util
