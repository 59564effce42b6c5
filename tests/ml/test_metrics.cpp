#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

Matrix two_blobs(std::size_t per_blob, double separation, double sigma,
                 std::uint64_t seed, std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(per_blob * 2, 2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      x(r, 0) = static_cast<double>(b) * separation + rng.normal(0.0, sigma);
      x(r, 1) = rng.normal(0.0, sigma);
      labels->push_back(static_cast<int>(b));
    }
  }
  return x;
}

TEST(SilhouetteTest, HandComputedExample) {
  // Four points on a line: {0, 1} and {10, 11}, perfect 2-clustering.
  Matrix x(4, 1, {0.0, 1.0, 10.0, 11.0});
  const std::vector<int> labels = {0, 0, 1, 1};
  // Outer points (0 and 11): a = 1, b = 10.5 -> s = 9.5/10.5.
  // Inner points (1 and 10): a = 1, b = 9.5  -> s = 8.5/9.5.
  const double expected = 0.5 * (9.5 / 10.5 + 8.5 / 9.5);
  EXPECT_NEAR(silhouette_score(CondensedDistances(x), labels), expected, 1e-9);
}

TEST(SilhouetteTest, RangeIsBounded) {
  std::vector<int> labels;
  const Matrix x = two_blobs(20, 2.0, 1.0, 3, &labels);
  const double s = silhouette_score(CondensedDistances(x), labels);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
}

TEST(SilhouetteTest, SeparationIncreasesScore) {
  std::vector<int> l1, l2;
  const Matrix near = two_blobs(25, 2.0, 1.0, 5, &l1);
  const Matrix far = two_blobs(25, 20.0, 1.0, 5, &l2);
  EXPECT_GT(silhouette_score(CondensedDistances(far), l2),
            silhouette_score(CondensedDistances(near), l1));
}

TEST(SilhouetteTest, BadLabelingScoresWorse) {
  std::vector<int> good;
  const Matrix x = two_blobs(20, 10.0, 0.5, 7, &good);
  std::vector<int> bad(good.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    bad[i] = static_cast<int>(i % 2);  // interleaved nonsense
  }
  const CondensedDistances d(x);
  EXPECT_GT(silhouette_score(d, good), silhouette_score(d, bad) + 0.5);
}

TEST(SilhouetteTest, SingletonClusterContributesZero) {
  // Two points in cluster 0, one singleton cluster 1.
  Matrix x(3, 1, {0.0, 1.0, 10.0});
  const std::vector<int> labels = {0, 0, 1};
  // Points 0,1: a=1, b=(10 resp. 9) -> s = (b-a)/b. Singleton: s=0.
  const double expected = ((10.0 - 1.0) / 10.0 + (9.0 - 1.0) / 9.0) / 3.0;
  EXPECT_NEAR(silhouette_score(CondensedDistances(x), labels), expected, 1e-9);
}

TEST(SilhouetteTest, RejectsDegenerateInput) {
  const CondensedDistances d(Matrix(3, 1, {0.0, 1.0, 2.0}));
  EXPECT_THROW(silhouette_score(d, std::vector<int>{0, 0, 0}),
               icn::util::PreconditionError);  // single cluster
  EXPECT_THROW(silhouette_score(d, std::vector<int>{0, 2, 2}),
               icn::util::PreconditionError);  // empty cluster 1
  EXPECT_THROW(silhouette_score(d, std::vector<int>{0, -1, 1}),
               icn::util::PreconditionError);
}

TEST(DunnTest, HandComputedExample) {
  // Clusters {0,1} and {10,12}: min inter = 9, max diameter = 2.
  Matrix x(4, 1, {0.0, 1.0, 10.0, 12.0});
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_NEAR(dunn_index(CondensedDistances(x), labels), 4.5, 1e-9);
}

TEST(DunnTest, AllSingletonsIsInfinite) {
  Matrix x(3, 1, {0.0, 5.0, 9.0});
  const std::vector<int> labels = {0, 1, 2};
  EXPECT_TRUE(std::isinf(dunn_index(CondensedDistances(x), labels)));
}

TEST(DunnTest, SeparationIncreasesIndex) {
  std::vector<int> l1, l2;
  const Matrix near = two_blobs(15, 4.0, 0.5, 11, &l1);
  const Matrix far = two_blobs(15, 40.0, 0.5, 11, &l2);
  EXPECT_GT(dunn_index(CondensedDistances(far), l2),
            dunn_index(CondensedDistances(near), l1));
}

TEST(MetricsTest, LabelSizeMismatchThrows) {
  Matrix x(3, 1, {0.0, 1.0, 2.0});
  const CondensedDistances d(x);
  EXPECT_THROW(silhouette_score(d, std::vector<int>{0, 1}),
               icn::util::PreconditionError);
  EXPECT_THROW(dunn_index(d, std::vector<int>{0, 1}),
               icn::util::PreconditionError);
}

TEST(AccuracyTest, Basics) {
  const std::vector<int> truth = {0, 1, 2, 1};
  const std::vector<int> pred = {0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
  EXPECT_THROW(accuracy(std::vector<int>{}, std::vector<int>{}),
               icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::ml
