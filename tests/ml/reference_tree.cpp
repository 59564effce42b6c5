#include "reference_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.h"

namespace icn::ml::reference {
namespace {

/// Gini impurity of a class-count vector with total `n`.
double gini(std::span<const double> counts, double n) {
  if (n <= 0.0) return 0.0;
  double acc = 0.0;
  for (const double c : counts) acc += c * c;
  return 1.0 - acc / (n * n);
}

/// (feature value, class) pair for the split scan, ordered like std::pair.
struct ValClass {
  double value = 0.0;
  int label = 0;
  friend bool operator<(const ValClass& a, const ValClass& b) {
    return a.value < b.value || (a.value == b.value && a.label < b.label);
  }
};

/// DecisionTree's state and per-node-sort build() as they were before the
/// rank table, with plain vectors for the per-node buffers.
struct Builder {
  std::vector<TreeNode> nodes_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;

  int build(const Matrix& x, std::span<const int> y,
            const DecisionTree::Params& params, icn::util::Rng& rng,
            std::vector<std::size_t>& idx, std::size_t begin,
            std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    const auto k = static_cast<std::size_t>(num_classes_);

    std::vector<double> counts(k, 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      counts[static_cast<std::size_t>(y[idx[i]])] += 1.0;
    }
    const double node_n = static_cast<double>(n);
    const double node_gini = gini(counts, node_n);

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    {
      TreeNode& node = nodes_.back();
      node.cover = node_n;
      node.value.resize(k);
      for (std::size_t c = 0; c < k; ++c) node.value[c] = counts[c] / node_n;
    }

    const bool pure = node_gini == 0.0;
    if (pure || depth >= params.max_depth || n < params.min_samples_split) {
      return node_id;
    }

    // Candidate features: a random subset of size max_features (all when 0).
    std::vector<std::size_t> features(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t mtry = params.max_features == 0
                           ? num_features_
                           : std::min(params.max_features, num_features_);
    // Partial Fisher-Yates: the first mtry entries become the candidate set.
    for (std::size_t i = 0; i < mtry; ++i) {
      const std::size_t j = i + rng.uniform_index(num_features_ - i);
      std::swap(features[i], features[j]);
    }

    double best_gain = 0.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<double> left_counts(k);
    std::vector<ValClass> vals(n);

    for (std::size_t fi = 0; fi < mtry; ++fi) {
      const std::size_t f = features[fi];
      for (std::size_t i = begin; i < end; ++i) {
        vals[i - begin] = ValClass{x(idx[i], f), y[idx[i]]};
      }
      std::sort(vals.begin(), vals.end());
      if (vals.front().value == vals.back().value) continue;  // constant
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_counts[static_cast<std::size_t>(vals[i].label)] += 1.0;
        if (vals[i].value == vals[i + 1].value) continue;  // not a cut point
        const double nl = static_cast<double>(i + 1);
        const double nr = node_n - nl;
        if (nl < static_cast<double>(params.min_samples_leaf) ||
            nr < static_cast<double>(params.min_samples_leaf)) {
          continue;
        }
        double right_sq = 0.0, left_sq = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
          left_sq += left_counts[c] * left_counts[c];
          const double rc = counts[c] - left_counts[c];
          right_sq += rc * rc;
        }
        const double gini_l = 1.0 - left_sq / (nl * nl);
        const double gini_r = 1.0 - right_sq / (nr * nr);
        const double gain =
            node_gini - (nl / node_n) * gini_l - (nr / node_n) * gini_r;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (vals[i].value + vals[i + 1].value);
        }
      }
    }

    if (best_gain <= 0.0) return node_id;

    // Partition idx[begin, end) by the chosen split (stable not required).
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) { return x(i, best_feature) <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return node_id;  // numerical edge

    const int left_id = build(x, y, params, rng, idx, begin, mid, depth + 1);
    const int right_id = build(x, y, params, rng, idx, mid, end, depth + 1);
    TreeNode& node = nodes_[static_cast<std::size_t>(node_id)];
    node.feature = static_cast<int>(best_feature);
    node.threshold = best_threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }
};

/// Copy of the class distribution at the leaf x falls into.
std::vector<double> leaf_copy(const std::vector<TreeNode>& nodes,
                              std::span<const double> x) {
  const TreeNode* node = &nodes.front();
  while (!node->is_leaf()) {
    const auto f = static_cast<std::size_t>(node->feature);
    node = &nodes[static_cast<std::size_t>(
        x[f] <= node->threshold ? node->left : node->right)];
  }
  return node->value;
}

/// One element of the TreeSHAP feature path (Lundberg Alg. 2).
struct PathElement {
  int d = -1;
  double z = 1.0;
  double o = 1.0;
  double w = 0.0;
};

using Path = std::vector<PathElement>;

void extend(Path& m, double pz, double po, int pi) {
  const std::size_t l = m.size();
  m.push_back(PathElement{pi, pz, po, l == 0 ? 1.0 : 0.0});
  for (std::size_t i = l; i-- > 0;) {
    m[i + 1].w += po * m[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    m[i].w = pz * m[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

void unwind(Path& m, std::size_t i) {
  const std::size_t depth = m.size();
  const double o_i = m[i].o;
  const double z_i = m[i].z;
  double n = m[depth - 1].w;
  for (std::size_t j = depth - 1; j-- > 0;) {
    if (o_i != 0.0) {
      const double t = m[j].w;
      m[j].w = n * static_cast<double>(depth) /
               (static_cast<double>(j + 1) * o_i);
      n = t - m[j].w * z_i * static_cast<double>(depth - 1 - j) /
                  static_cast<double>(depth);
    } else {
      m[j].w = m[j].w * static_cast<double>(depth) /
               (z_i * static_cast<double>(depth - 1 - j));
    }
  }
  for (std::size_t j = i; j + 1 < depth; ++j) {
    m[j].d = m[j + 1].d;
    m[j].z = m[j + 1].z;
    m[j].o = m[j + 1].o;
  }
  m.pop_back();
}

/// Sum of the weights unwind(m, i) would produce, without mutating the path.
double unwound_sum(const Path& m, std::size_t i) {
  const std::size_t depth = m.size();
  const double o_i = m[i].o;
  const double z_i = m[i].z;
  double n = m[depth - 1].w;
  double total = 0.0;
  for (std::size_t j = depth - 1; j-- > 0;) {
    if (o_i != 0.0) {
      const double t = n * static_cast<double>(depth) /
                       (static_cast<double>(j + 1) * o_i);
      total += t;
      n = m[j].w - t * z_i * static_cast<double>(depth - 1 - j) /
                       static_cast<double>(depth);
    } else {
      total += m[j].w * static_cast<double>(depth) /
               (z_i * static_cast<double>(depth - 1 - j));
    }
  }
  return total;
}

void recurse(const std::vector<TreeNode>& nodes, std::span<const double> x,
             Matrix& phi, int node_id, Path m, double pz, double po, int pi) {
  extend(m, pz, po, pi);
  const TreeNode& node = nodes[static_cast<std::size_t>(node_id)];
  if (node.is_leaf()) {
    for (std::size_t i = 1; i < m.size(); ++i) {
      const double w = unwound_sum(m, i);
      const double scale = w * (m[i].o - m[i].z);
      const auto f = static_cast<std::size_t>(m[i].d);
      for (std::size_t c = 0; c < node.value.size(); ++c) {
        phi(f, c) += scale * node.value[c];
      }
    }
    return;
  }
  const auto f = static_cast<std::size_t>(node.feature);
  const bool go_left = x[f] <= node.threshold;
  const int hot = go_left ? node.left : node.right;
  const int cold = go_left ? node.right : node.left;
  double incoming_z = 1.0;
  double incoming_o = 1.0;
  for (std::size_t i = 1; i < m.size(); ++i) {
    if (m[i].d == node.feature) {
      incoming_z = m[i].z;
      incoming_o = m[i].o;
      unwind(m, i);
      break;
    }
  }
  const double cover = node.cover;
  const double hot_cover = nodes[static_cast<std::size_t>(hot)].cover;
  const double cold_cover = nodes[static_cast<std::size_t>(cold)].cover;
  recurse(nodes, x, phi, hot, m, incoming_z * hot_cover / cover, incoming_o,
          node.feature);
  recurse(nodes, x, phi, cold, m, incoming_z * cold_cover / cover, 0.0,
          node.feature);
}

}  // namespace

Tree fit_tree(const Matrix& x, std::span<const int> y, int num_classes,
              const DecisionTree::Params& params, icn::util::Rng& rng,
              std::span<const std::size_t> sample_idx) {
  ICN_REQUIRE(x.rows() == y.size() && x.rows() > 0, "reference fit shape");
  Builder builder{{}, num_classes, x.cols()};
  std::vector<std::size_t> idx;
  if (sample_idx.empty()) {
    idx.resize(x.rows());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
  } else {
    idx.assign(sample_idx.begin(), sample_idx.end());
  }
  builder.build(x, y, params, rng, idx, 0, idx.size(), 0);
  return Tree{std::move(builder.nodes_)};
}

Forest fit_forest(const Matrix& x, std::span<const int> y, int num_classes,
                  const RandomForest::Params& params) {
  DecisionTree::Params tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.max_features =
      params.max_features != 0
          ? params.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(x.cols()))));
  const std::size_t n = x.rows();
  Forest forest;
  std::vector<std::vector<bool>> in_bag(params.num_trees);
  for (std::size_t t = 0; t < params.num_trees; ++t) {
    icn::util::Rng rng(icn::util::derive_seed(params.seed, t));
    std::vector<std::size_t> sample;
    if (params.bootstrap) {
      in_bag[t].assign(n, false);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pick = rng.uniform_index(n);
        sample.push_back(pick);
        in_bag[t][pick] = true;
      }
    } else {
      sample.resize(n);
      std::iota(sample.begin(), sample.end(), std::size_t{0});
    }
    forest.trees.push_back(
        fit_tree(x, y, num_classes, tree_params, rng, sample));
  }
  if (!params.bootstrap) {
    forest.oob_accuracy = std::numeric_limits<double>::quiet_NaN();
    return forest;
  }
  std::size_t covered = 0, hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> votes(static_cast<std::size_t>(num_classes), 0.0);
    bool touched = false;
    for (std::size_t t = 0; t < params.num_trees; ++t) {
      if (in_bag[t][i]) continue;
      const auto proba = leaf_copy(forest.trees[t].nodes, x.row(i));
      for (std::size_t c = 0; c < proba.size(); ++c) votes[c] += proba[c];
      touched = true;
    }
    if (!touched) continue;
    ++covered;
    const int pred = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    if (pred == y[i]) ++hits;
  }
  forest.oob_accuracy =
      covered == 0 ? std::numeric_limits<double>::quiet_NaN()
                   : static_cast<double>(hits) / static_cast<double>(covered);
  return forest;
}

std::vector<double> forest_proba(const Forest& forest, int num_classes,
                                 std::span<const double> x) {
  std::vector<double> proba(static_cast<std::size_t>(num_classes), 0.0);
  for (const Tree& tree : forest.trees) {
    const auto p = leaf_copy(tree.nodes, x);
    for (std::size_t c = 0; c < p.size(); ++c) proba[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(forest.trees.size());
  for (auto& p : proba) p *= inv;
  return proba;
}

Matrix tree_shap(const DecisionTree& tree, std::span<const double> x) {
  Matrix phi(x.size(), static_cast<std::size_t>(tree.num_classes()));
  recurse(tree.nodes(), x, phi, 0, Path{}, 1.0, 1.0, -1);
  return phi;
}

Matrix forest_shap(const RandomForest& forest, std::span<const double> x) {
  Matrix acc(x.size(), static_cast<std::size_t>(forest.num_classes()));
  for (const DecisionTree& tree : forest.trees()) {
    const Matrix phi = tree_shap(tree, x);
    for (std::size_t i = 0; i < acc.data().size(); ++i) {
      acc.data()[i] += phi.data()[i];
    }
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : acc.data()) v *= inv;
  return acc;
}

}  // namespace icn::ml::reference
