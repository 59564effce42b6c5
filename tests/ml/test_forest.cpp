#include "ml/forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/metrics.h"
#include "util/error.h"
#include "util/rng.h"

#include "reference_tree.h"

namespace icn::ml {
namespace {

/// Three noisy Gaussian blobs in 4D (two informative dims, two noise).
Matrix blob_data(std::size_t per_blob, double sigma, std::uint64_t seed,
                 std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(per_blob * 3, 4);
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      x(r, 0) = centers[b][0] + rng.normal(0.0, sigma);
      x(r, 1) = centers[b][1] + rng.normal(0.0, sigma);
      x(r, 2) = rng.normal();  // noise
      x(r, 3) = rng.normal();  // noise
      labels->push_back(static_cast<int>(b));
    }
  }
  return x;
}

TEST(RandomForestTest, FitsSeparableData) {
  std::vector<int> y;
  const Matrix x = blob_data(60, 0.5, 3, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 30;
  forest.fit(x, y, 3, params);
  EXPECT_TRUE(forest.is_fitted());
  EXPECT_EQ(forest.trees().size(), 30u);
  EXPECT_GT(accuracy(forest.predict_all(x), y), 0.99);
}

TEST(RandomForestTest, OobAccuracyIsReasonable) {
  std::vector<int> y;
  const Matrix x = blob_data(80, 0.5, 5, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 50;
  forest.fit(x, y, 3, params);
  EXPECT_GT(forest.oob_accuracy(), 0.9);
  EXPECT_LE(forest.oob_accuracy(), 1.0);
}

TEST(RandomForestTest, OobNanWithoutBootstrap) {
  std::vector<int> y;
  const Matrix x = blob_data(20, 0.5, 7, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 5;
  params.bootstrap = false;
  forest.fit(x, y, 3, params);
  EXPECT_TRUE(std::isnan(forest.oob_accuracy()));
}

TEST(RandomForestTest, ProbaIsAveragedAndNormalized) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 0.7, 9, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 10;
  forest.fit(x, y, 3, params);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = forest.predict_proba(x.row(i));
    ASSERT_EQ(p.size(), 3u);
    double total = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, DeterministicForFixedSeed) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 0.8, 11, &y);
  RandomForest a, b;
  RandomForest::Params params;
  params.num_trees = 12;
  params.seed = 777;
  a.fit(x, y, 3, params);
  b.fit(x, y, 3, params);
  EXPECT_EQ(a.predict_all(x), b.predict_all(x));
  EXPECT_DOUBLE_EQ(a.oob_accuracy(), b.oob_accuracy());
}

TEST(RandomForestTest, SeedChangesEnsemble) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 1.5, 13, &y);
  RandomForest a, b;
  RandomForest::Params params;
  params.num_trees = 8;
  params.seed = 1;
  a.fit(x, y, 3, params);
  params.seed = 2;
  b.fit(x, y, 3, params);
  // Noisy data: at least one prediction probability should differ.
  bool differs = false;
  for (std::size_t i = 0; i < x.rows() && !differs; ++i) {
    differs = a.predict_proba(x.row(i)) != b.predict_proba(x.row(i));
  }
  EXPECT_TRUE(differs);
}

TEST(RandomForestTest, FeatureImportanceFindsInformativeDims) {
  std::vector<int> y;
  const Matrix x = blob_data(100, 0.5, 15, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 40;
  forest.fit(x, y, 3, params);
  const auto imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 4u);
  double total = 0.0;
  for (const double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Informative features 0 and 1 dominate the noise features 2 and 3.
  EXPECT_GT(imp[0] + imp[1], 5.0 * (imp[2] + imp[3]));
}

TEST(RandomForestTest, MoreTreesImproveNoisyAccuracy) {
  std::vector<int> y;
  const Matrix x = blob_data(80, 1.8, 17, &y);
  RandomForest small, large;
  RandomForest::Params params;
  params.num_trees = 1;
  params.seed = 5;
  small.fit(x, y, 3, params);
  params.num_trees = 60;
  large.fit(x, y, 3, params);
  EXPECT_GE(large.oob_accuracy(), small.oob_accuracy() - 0.02);
}

TEST(RandomForestTest, InputValidation) {
  RandomForest forest;
  RandomForest::Params params;
  Matrix x(2, 1, {0.0, 1.0});
  params.num_trees = 0;
  EXPECT_THROW(forest.fit(x, std::vector<int>{0, 1}, 2, params),
               icn::util::PreconditionError);
  params.num_trees = 1;
  EXPECT_THROW(forest.fit(x, std::vector<int>{0}, 2, params),
               icn::util::PreconditionError);
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}),
               icn::util::PreconditionError);
  EXPECT_THROW(forest.feature_importance(), icn::util::PreconditionError);
  // Non-finite features are refused once, when the forest ranks them.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const Matrix bad_x(2, 1, {0.0, bad});
    EXPECT_THROW(forest.fit(bad_x, std::vector<int>{0, 1}, 2, params),
                 icn::util::PreconditionError);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(RandomForestTest, MatchesReferenceForestBitForBit) {
  // Every tree grown off the shared rank table equals the reference
  // builder's tree from the same seed stream and bootstrap draw, and the OOB
  // estimate equals the one summed from copied leaf distributions.
  std::vector<int> y;
  const Matrix x = blob_data(100, 0.9, 8, &y);
  RandomForest::Params params;
  params.num_trees = 12;
  params.seed = 11;
  for (const std::size_t min_leaf : {std::size_t{1}, std::size_t{3}}) {
    params.min_samples_leaf = min_leaf;
    RandomForest forest;
    forest.fit(x, y, 3, params);
    const reference::Forest ref = reference::fit_forest(x, y, 3, params);

    ASSERT_EQ(forest.trees().size(), ref.trees.size());
    for (std::size_t t = 0; t < ref.trees.size(); ++t) {
      const auto& a = forest.trees()[t].nodes();
      const auto& r = ref.trees[t].nodes;
      ASSERT_EQ(a.size(), r.size()) << "tree " << t;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].feature, r[i].feature) << "tree " << t << " node " << i;
        EXPECT_TRUE(same_bits(a[i].threshold, r[i].threshold));
        EXPECT_EQ(a[i].left, r[i].left);
        EXPECT_EQ(a[i].right, r[i].right);
        EXPECT_TRUE(same_bits(a[i].cover, r[i].cover));
        EXPECT_TRUE(same_bits(a[i].value, r[i].value));
      }
      EXPECT_TRUE(same_bits(forest.trees()[t].impurity_importance(),
                            ref.trees[t].importance));
    }
    EXPECT_TRUE(same_bits(forest.oob_accuracy(), ref.oob_accuracy))
        << forest.oob_accuracy() << " vs " << ref.oob_accuracy;
  }
}

TEST(RandomForestTest, PredictionsEqualPerTreeCopySum) {
  // predict_proba and predict_all accumulate leaf distributions in place;
  // they must equal the sum of a copy of each tree's leaf distribution, in
  // tree order, scaled by 1/T.
  std::vector<int> y;
  const Matrix x = blob_data(60, 1.4, 12, &y);
  std::vector<int> y_new;
  const Matrix x_new = blob_data(40, 2.0, 13, &y_new);
  RandomForest::Params params;
  params.num_trees = 15;
  params.seed = 21;
  RandomForest forest;
  forest.fit(x, y, 3, params);
  const reference::Forest ref = reference::fit_forest(x, y, 3, params);
  for (const Matrix* rows : {&x, &x_new}) {
    const std::vector<int> predicted = forest.predict_all(*rows);
    for (std::size_t i = 0; i < rows->rows(); ++i) {
      const auto proba = forest.predict_proba(rows->row(i));
      const auto expected = reference::forest_proba(ref, 3, rows->row(i));
      ASSERT_TRUE(same_bits(proba, expected)) << "row " << i;
      EXPECT_EQ(predicted[i],
                std::max_element(expected.begin(), expected.end()) -
                    expected.begin())
          << "row " << i;
      EXPECT_EQ(forest.predict(rows->row(i)), predicted[i]);
    }
  }
}

}  // namespace
}  // namespace icn::ml
