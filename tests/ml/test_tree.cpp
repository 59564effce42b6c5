#include "ml/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "ml/metrics.h"
#include "util/error.h"
#include "util/rng.h"

#include "reference_tree.h"

namespace icn::ml {
namespace {

/// Labels = quadrant of the 2D point (axis-aligned, perfectly separable).
Matrix quadrant_data(std::size_t n, std::uint64_t seed,
                     std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    labels->push_back((x(i, 0) > 0.0 ? 1 : 0) + (x(i, 1) > 0.0 ? 2 : 0));
  }
  return x;
}

/// Arg-max class of the leaf distribution x falls into.
int predicted_class(const DecisionTree& tree, std::span<const double> x) {
  const auto& proba = tree.predict_proba(x);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

DecisionTree fit_tree(const Matrix& x, const std::vector<int>& y, int k,
                      DecisionTree::Params params = {},
                      std::uint64_t seed = 42) {
  DecisionTree tree;
  icn::util::Rng rng(seed);
  tree.fit(x, y, k, params, rng);
  return tree;
}

TEST(DecisionTreeTest, FitsPureLeafOnConstantLabels) {
  Matrix x(4, 1, {1.0, 2.0, 3.0, 4.0});
  const std::vector<int> y = {1, 1, 1, 1};
  const auto tree = fit_tree(x, y, 2);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf());
  EXPECT_EQ(predicted_class(tree, std::vector<double>{0.0}), 1);
}

TEST(DecisionTreeTest, SeparableDataPerfectlyClassified) {
  std::vector<int> y;
  const Matrix x = quadrant_data(200, 7, &y);
  const auto tree = fit_tree(x, y, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(predicted_class(tree, x.row(i)), y[i]);
  }
}

TEST(DecisionTreeTest, ProbaSumsToOne) {
  std::vector<int> y;
  const Matrix x = quadrant_data(100, 9, &y);
  const auto tree = fit_tree(x, y, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = tree.predict_proba(x.row(i));
    double total = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  std::vector<int> y;
  const Matrix x = quadrant_data(200, 11, &y);
  DecisionTree::Params params;
  params.max_depth = 1;
  const auto tree = fit_tree(x, y, 4, params);
  // Depth 1 = a root with two leaves.
  EXPECT_LE(tree.nodes().size(), 3u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  std::vector<int> y;
  const Matrix x = quadrant_data(50, 13, &y);
  DecisionTree::Params params;
  params.min_samples_leaf = 10;
  const auto tree = fit_tree(x, y, 4, params);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.cover, 10.0);
    }
  }
}

TEST(DecisionTreeTest, CoverAccountsForAllSamples) {
  std::vector<int> y;
  const Matrix x = quadrant_data(80, 15, &y);
  const auto tree = fit_tree(x, y, 4);
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 80.0);
  for (const auto& node : tree.nodes()) {
    if (!node.is_leaf()) {
      const double child_sum =
          tree.nodes()[static_cast<std::size_t>(node.left)].cover +
          tree.nodes()[static_cast<std::size_t>(node.right)].cover;
      EXPECT_DOUBLE_EQ(node.cover, child_sum);
    }
  }
}

TEST(DecisionTreeTest, NodeValuesAreCoverWeightedChildMeans) {
  std::vector<int> y;
  const Matrix x = quadrant_data(120, 17, &y);
  const auto tree = fit_tree(x, y, 4);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) continue;
    const auto& l = tree.nodes()[static_cast<std::size_t>(node.left)];
    const auto& r = tree.nodes()[static_cast<std::size_t>(node.right)];
    for (std::size_t c = 0; c < node.value.size(); ++c) {
      const double expected =
          (l.cover * l.value[c] + r.cover * r.value[c]) / node.cover;
      EXPECT_NEAR(node.value[c], expected, 1e-9);
    }
  }
}

TEST(DecisionTreeTest, BootstrapSampleIndicesUsed) {
  Matrix x(4, 1, {0.0, 1.0, 10.0, 11.0});
  const std::vector<int> y = {0, 0, 1, 1};
  DecisionTree tree;
  icn::util::Rng rng(1);
  // Train only on the low cluster: tree must predict 0 everywhere.
  const std::vector<std::size_t> sample = {0, 1, 0, 1};
  tree.fit(x, y, 2, {}, rng, sample);
  EXPECT_EQ(predicted_class(tree, std::vector<double>{10.5}), 0);
}

TEST(DecisionTreeTest, InputValidation) {
  DecisionTree tree;
  icn::util::Rng rng(1);
  Matrix x(2, 1, {0.0, 1.0});
  EXPECT_THROW(tree.fit(x, std::vector<int>{0}, 2, {}, rng),
               icn::util::PreconditionError);
  EXPECT_THROW(tree.fit(x, std::vector<int>{0, 5}, 2, {}, rng),
               icn::util::PreconditionError);
  EXPECT_THROW((void)tree.predict_proba(std::vector<double>{1.0}),
               icn::util::PreconditionError);  // unfitted
}

TEST(DecisionTreeTest, PredictValidatesFeatureCount) {
  std::vector<int> y;
  const Matrix x = quadrant_data(40, 21, &y);
  const auto tree = fit_tree(x, y, 4);
  EXPECT_THROW((void)tree.predict_proba(std::vector<double>{1.0}),
               icn::util::PreconditionError);
}

TEST(DecisionTreeTest, FeatureSubsamplingStillLearns) {
  std::vector<int> y;
  const Matrix x = quadrant_data(400, 23, &y);
  DecisionTree::Params params;
  params.max_features = 1;  // random single feature per split
  const auto tree = fit_tree(x, y, 4, params);
  std::vector<int> pred(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    pred[i] = predicted_class(tree, x.row(i));
  }
  EXPECT_GT(accuracy(pred, y), 0.95);
}

/// Rows that reach every branch of the rank-keyed split search: 700 rows
/// and columns of > 256 distinct values (two radix byte passes at the root,
/// std::sort in the small nodes below), a column quantised to 5 levels (one
/// pass, long ties), mixed -0.0/+0.0 next to informative cuts, a constant
/// column, and 12 classes.
Matrix parity_data(std::vector<int>* labels) {
  constexpr std::size_t kRows = 700;
  icn::util::Rng rng(2024);
  Matrix x(kRows, 6);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double u = rng.uniform(-1.0, 1.0);
    const double zero_pick = rng.uniform(0.0, 1.0);
    x(i, 0) = u;
    x(i, 1) = 0.25 * std::floor(rng.uniform(0.0, 5.0));
    x(i, 2) = zero_pick < 0.2 ? -0.0 : zero_pick < 0.4 ? 0.0 : rng.normal();
    x(i, 3) = 3.5;
    x(i, 4) = std::round(rng.uniform(0.0, 400.0));
    x(i, 5) = rng.normal();
    int label = 2 * static_cast<int>((u + 1.0) * 3.0) + (x(i, 4) > 200.0);
    if (x(i, 2) > 0.0 && rng.uniform(0.0, 1.0) < 0.5) label = (label + 1) % 12;
    if (rng.uniform(0.0, 1.0) < 0.1) {
      label = static_cast<int>(rng.uniform_index(12));
    }
    labels->push_back(label);
  }
  return x;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DecisionTreeTest, MatchesReferenceBuilderBitForBit) {
  // The rank-keyed radix builder must grow exactly the tree the per-node-sort
  // reference builder grows: same splits, thresholds, covers and values, and
  // the same rng draws.
  std::vector<int> y;
  const Matrix x = parity_data(&y);
  icn::util::Rng draw(31);
  std::vector<std::size_t> bootstrap(x.rows());
  for (auto& i : bootstrap) i = draw.uniform_index(x.rows());
  for (const std::size_t min_leaf : {std::size_t{1}, std::size_t{5}}) {
    for (const std::size_t max_features :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      for (const bool use_bootstrap : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "min_samples_leaf " << min_leaf << " max_features "
                     << max_features << " bootstrap " << use_bootstrap);
        DecisionTree::Params params;
        params.min_samples_leaf = min_leaf;
        params.max_features = max_features;
        const std::span<const std::size_t> sample =
            use_bootstrap ? std::span<const std::size_t>(bootstrap)
                          : std::span<const std::size_t>();
        DecisionTree tree;
        icn::util::Rng rng(99);
        tree.fit(x, y, 12, params, rng, sample);
        icn::util::Rng ref_rng(99);
        const reference::Tree ref =
            reference::fit_tree(x, y, 12, params, ref_rng, sample);

        ASSERT_EQ(tree.nodes().size(), ref.nodes.size());
        EXPECT_GT(tree.nodes().size(), 50u);
        for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
          const TreeNode& a = tree.nodes()[i];
          const TreeNode& r = ref.nodes[i];
          EXPECT_EQ(a.feature, r.feature) << "node " << i;
          EXPECT_TRUE(same_bits(a.threshold, r.threshold)) << "node " << i;
          EXPECT_EQ(a.left, r.left) << "node " << i;
          EXPECT_EQ(a.right, r.right) << "node " << i;
          EXPECT_TRUE(same_bits(a.cover, r.cover)) << "node " << i;
          EXPECT_TRUE(same_bits(a.value, r.value)) << "node " << i;
        }
        EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
      }
    }
  }
}

TEST(DecisionTreeTest, RejectsNonFiniteFeatures) {
  const std::vector<int> y = {0, 1, 0, 1};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const Matrix x(4, 2, {0.0, 1.0, 2.0, bad, 4.0, 5.0, 6.0, 7.0});
    DecisionTree tree;
    icn::util::Rng rng(1);
    EXPECT_THROW(tree.fit(x, y, 2, {}, rng), icn::util::PreconditionError);
    EXPECT_THROW(FeatureRanks{x}, icn::util::PreconditionError);
  }
}

TEST(DecisionTreeTest, RankTableSharesRanksBetweenEqualValues) {
  const Matrix x(5, 2, {0.5, 1.0, -0.0, 1.0, 0.0, 1.0, -2.0, 1.0, 0.5, 1.0});
  const FeatureRanks ranks(x);
  const std::vector<std::uint32_t> expected = {2, 1, 1, 0, 2};
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         ranks.ranks(0).begin(), ranks.ranks(0).end()));
  ASSERT_EQ(ranks.values(0).size(), 3u);
  EXPECT_EQ(ranks.values(0)[0], -2.0);
  EXPECT_EQ(ranks.values(0)[1], 0.0);
  EXPECT_EQ(ranks.values(0)[2], 0.5);
  ASSERT_EQ(ranks.values(1).size(), 1u);
  for (const std::uint32_t r : ranks.ranks(1)) EXPECT_EQ(r, 0u);
}

}  // namespace
}  // namespace icn::ml
