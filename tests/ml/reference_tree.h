// Reference implementations of the surrogate stage, kept as the parity
// baselines for the production code in src/ml: the per-node-sort CART
// builder, the forest fit and prediction that sum a copy of every tree's leaf
// distribution, and TreeSHAP with one unwound_sum recursion per path element
// (and its forest mean). The production tree builder, forest and TreeSHAP
// must reproduce these bit for bit (DESIGN.md §6.5).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/forest.h"
#include "ml/matrix.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace icn::ml::reference {

/// A tree grown by the reference builder.
struct Tree {
  std::vector<TreeNode> nodes;
  std::vector<double> importance;  ///< Unnormalized impurity decrease.
};

/// CART fit that gathers (value, label) pairs through the matrix and sorts
/// them at every node, re-summing every class at every cut point. Same
/// contract and rng draws as DecisionTree::fit.
Tree fit_tree(const Matrix& x, std::span<const int> y, int num_classes,
              const DecisionTree::Params& params, icn::util::Rng& rng,
              std::span<const std::size_t> sample_idx = {});

/// A forest grown with fit_tree from RandomForest::fit's per-tree seed
/// streams and bootstrap draws, fitted serially.
struct Forest {
  std::vector<Tree> trees;
  double oob_accuracy = 0.0;
};

Forest fit_forest(const Matrix& x, std::span<const int> y, int num_classes,
                  const RandomForest::Params& params);

/// Mean of copies of the trees' leaf distributions for x, in tree order.
std::vector<double> forest_proba(const Forest& forest, int num_classes,
                                 std::span<const double> x);

/// TreeSHAP (Lundberg et al. 2020, Alg. 2) with each leaf's contributions
/// summed one path element at a time.
Matrix tree_shap(const DecisionTree& tree, std::span<const double> x);

/// Forest SHAP as the mean of tree_shap over the trees: each tree's values
/// add into a zeroed sum in index order, then the sum scales by 1/T.
Matrix forest_shap(const RandomForest& forest, std::span<const double> x);

}  // namespace icn::ml::reference
