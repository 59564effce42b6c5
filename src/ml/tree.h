// CART decision-tree classifier, the building block of the random-forest
// surrogate used in Sec. 5.1.2 to make the clustering explainable.
//
// Nodes are stored in a flat array with explicit cover (weighted sample
// count) and per-node class distributions, which is exactly the structure
// TreeSHAP (Lundberg et al. 2020) walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace icn::ml {

/// One node of a fitted decision tree.
struct TreeNode {
  int feature = -1;      ///< Split feature; -1 marks a leaf.
  double threshold = 0;  ///< Split rule: go left when x[feature] <= threshold.
  int left = -1;         ///< Left child index (-1 for leaves).
  int right = -1;        ///< Right child index (-1 for leaves).
  double cover = 0;      ///< Number of training samples that reach this node.
  std::vector<double> value;  ///< Class probability distribution at the node.

  [[nodiscard]] bool is_leaf() const { return feature < 0; }
};

/// Per-feature dense ranks of a training matrix: the sorted view the split
/// search reads in place of the matrix. Equal values (-0.0 and +0.0
/// included) share a rank, ranks run 0 .. levels - 1 in ascending value
/// order, and a rank → value table maps them back. Read-only once built, so
/// one table serves every tree of a forest on every pool worker.
class FeatureRanks {
 public:
  /// Ranks every column of x. Requires a non-empty x with fewer than 2^32
  /// rows and every entry finite (NaN has no place in an order).
  explicit FeatureRanks(const Matrix& x);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Rank of every row's value of feature f; size rows().
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t f) const {
    return {ranks_.data() + f * rows_, rows_};
  }

  /// Value of each rank of feature f, ascending; size = its distinct values.
  [[nodiscard]] std::span<const double> values(std::size_t f) const {
    return {values_.data() + f * rows_, levels_[f]};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> ranks_;  ///< Column-major, rows_ per feature.
  std::vector<double> values_;        ///< Rank → value, rows_ per feature.
  std::vector<std::size_t> levels_;   ///< Distinct values of each feature.
};

/// CART classifier with Gini impurity splits.
class DecisionTree {
 public:
  /// Training hyper-parameters.
  struct Params {
    std::size_t max_depth = 32;         ///< Maximum tree depth (root = 0).
    std::size_t min_samples_leaf = 1;   ///< Minimum samples per leaf.
    std::size_t min_samples_split = 2;  ///< Minimum samples to try a split.
    /// Number of features sampled (without replacement) per split;
    /// 0 means "all features". Random forests use ~sqrt(M).
    std::size_t max_features = 0;
  };

  /// Fits the tree on rows `sample_idx` of x (all rows when empty).
  /// Labels must lie in [0, num_classes). Duplicated indices (bootstrap
  /// samples) are allowed. Requires x.rows() == y.size(), non-empty data and
  /// finite features.
  void fit(const Matrix& x, std::span<const int> y, int num_classes,
           const Params& params, icn::util::Rng& rng,
           std::span<const std::size_t> sample_idx = {});

  /// The same fit on a rank table built from x beforehand, so several trees
  /// can share one (RandomForest does). Produces the same tree as fit(x, ...).
  void fit(const FeatureRanks& ranks, std::span<const int> y, int num_classes,
           const Params& params, icn::util::Rng& rng,
           std::span<const std::size_t> sample_idx = {});

  /// True once fit() has produced at least a root node.
  [[nodiscard]] bool is_fitted() const { return !nodes_.empty(); }

  /// Flat node storage; node 0 is the root.
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Number of classes the tree was fitted with.
  [[nodiscard]] int num_classes() const { return num_classes_; }

  /// Class distribution at the leaf x falls into: a reference into the tree,
  /// valid until the tree is refitted or destroyed. Requires is_fitted() and
  /// x.size() == number of training features.
  [[nodiscard]] const std::vector<double>& predict_proba(
      std::span<const double> x) const;

  /// Number of features (columns) the tree was fitted on.
  [[nodiscard]] std::size_t num_features() const { return num_features_; }

 private:
  std::vector<TreeNode> nodes_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;

  /// The split search's buffers, sized by fit() for the root node.
  struct SplitScratch;

  int build(const FeatureRanks& ranks, std::span<const int> y,
            const Params& params, icn::util::Rng& rng,
            std::span<std::uint32_t> idx, std::size_t depth,
            SplitScratch& scratch);
};

}  // namespace icn::ml
