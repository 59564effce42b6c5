#include "ml/treeshap.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "util/arena.h"
#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// One element of the TreeSHAP feature path (Lundberg Alg. 2).
struct PathElement {
  int d = -1;      ///< Feature index (-1 for the root placeholder).
  double z = 1.0;  ///< Fraction of "zero" (missing-feature) paths that flow through.
  double o = 1.0;  ///< Fraction of "one" (present-feature) paths that flow through.
  double w = 0.0;  ///< Permutation weight of subsets of this size.
};

/// Non-owning path slice over arena storage. Each recursion level copies its
/// parent's elements into a fresh arena allocation (one level of spare
/// capacity for the extend), replacing the per-node-visit heap vector copy
/// the recursion used to make. memcpy of the elements is bit-identical to
/// the old vector copy, so the algorithm's output is unchanged.
struct Path {
  PathElement* data = nullptr;
  std::size_t size = 0;

  PathElement& operator[](std::size_t i) { return data[i]; }
  const PathElement& operator[](std::size_t i) const { return data[i]; }
};

/// Arena-allocates a copy of `parent` with room for one more element.
Path clone_for_extend(const Path& parent, icn::util::Arena& arena) {
  Path out{arena.alloc<PathElement>(parent.size + 1), parent.size};
  if (parent.size != 0) {
    std::memcpy(out.data, parent.data, parent.size * sizeof(PathElement));
  }
  return out;
}

/// Grows the path by one split (EXTEND of Alg. 2). The caller guarantees one
/// element of spare capacity (see clone_for_extend).
void extend(Path& m, double pz, double po, int pi) {
  const std::size_t l = m.size;
  m.data[l] = PathElement{pi, pz, po, l == 0 ? 1.0 : 0.0};
  m.size = l + 1;
  for (std::size_t i = l; i-- > 0;) {
    m[i + 1].w += po * m[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    m[i].w = pz * m[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Removes path element i, restoring the weights (UNWIND of Alg. 2).
void unwind(Path& m, std::size_t i) {
  const std::size_t depth = m.size;
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
  --m.size;
}

/// For every path element i >= 1, adds unwound_sum(m, i) * (o_i - z_i) *
/// leaf value to phi(d_i, ·), where unwound_sum(m, i) is the sum of the
/// weights unwind(m, i) would produce. All of a leaf's sums run together:
/// the loop over j is outside and the elements are lanes inside it, so their
/// divisions overlap instead of each waiting on the one before. Each lane
/// still performs exactly the operations of its own sum, in the same order,
/// and the sums land in phi in element order, so every bit is the same as
/// summing one element at a time. Elements with o != 0 and with o == 0 take
/// different recurrences and sit in separate contiguous lane ranges.
void add_leaf(const Path& m, std::span<const double> value, Matrix& phi,
              icn::util::Arena& arena) {
  const std::size_t depth = m.size;
  if (depth < 2) return;
  const std::size_t count = depth - 1;  // elements 1 .. depth-1
  double* const o = arena.alloc<double>(count);
  double* const z = arena.alloc<double>(count);
  double* const n = arena.alloc<double>(count);
  double* const total = arena.alloc<double>(count);
  std::size_t* const lane = arena.alloc<std::size_t>(count);
  std::size_t ones = 0;
  for (std::size_t i = 1; i < depth; ++i) ones += m[i].o != 0.0;
  std::size_t next_one = 0;
  std::size_t next_zero = ones;
  for (std::size_t i = 1; i < depth; ++i) {
    const std::size_t l = m[i].o != 0.0 ? next_one++ : next_zero++;
    lane[i - 1] = l;
    o[l] = m[i].o;
    z[l] = m[i].z;
    n[l] = m[depth - 1].w;
    total[l] = 0.0;
  }
  const double d = static_cast<double>(depth);
  for (std::size_t j = depth - 1; j-- > 0;) {
    const double w = m[j].w;
    const double j1 = static_cast<double>(j + 1);
    const double rest = static_cast<double>(depth - 1 - j);
    for (std::size_t l = 0; l < ones; ++l) {
      const double t = n[l] * d / (j1 * o[l]);
      total[l] += t;
      n[l] = w - t * z[l] * rest / d;
    }
    for (std::size_t l = ones; l < count; ++l) {
      total[l] += w * d / (z[l] * rest);
    }
  }
  for (std::size_t i = 1; i < depth; ++i) {
    const double scale = total[lane[i - 1]] * (m[i].o - m[i].z);
    const auto f = static_cast<std::size_t>(m[i].d);
    for (std::size_t c = 0; c < value.size(); ++c) {
      phi(f, c) += scale * value[c];
    }
  }
}

/// Recursive pass of Alg. 2 accumulating phi (M x K, row-major in `phi`).
/// The frame opened here releases this level's path copy (and everything the
/// two child calls allocated) when the level returns, so a whole-tree pass
/// peaks at O(depth²) arena bytes and does zero heap allocations after the
/// arena warms up.
void recurse(const std::vector<TreeNode>& nodes, std::span<const double> x,
             Matrix& phi, int node_id, const Path& parent, double pz,
             double po, int pi, icn::util::Arena& arena) {
  const icn::util::Arena::Frame frame(arena);
  Path m = clone_for_extend(parent, arena);
  extend(m, pz, po, pi);
  const TreeNode& node = nodes[static_cast<std::size_t>(node_id)];
  if (node.is_leaf()) {
    add_leaf(m, node.value, phi, arena);
    return;
  }
  const auto f = static_cast<std::size_t>(node.feature);
  const bool go_left = x[f] <= node.threshold;
  const int hot = go_left ? node.left : node.right;
  const int cold = go_left ? node.right : node.left;
  double incoming_z = 1.0;
  double incoming_o = 1.0;
  // If this feature already appeared on the path, undo its element first so
  // each feature is unique on the path.
  for (std::size_t i = 1; i < m.size; ++i) {
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
          node.feature, arena);
  recurse(nodes, x, phi, cold, m, incoming_z * cold_cover / cover, 0.0,
          node.feature, arena);
}

/// Adds tree's SHAP values at x into phi (M x K); tree_shap from zero.
void add_tree_shap(const DecisionTree& tree, std::span<const double> x,
                   Matrix& phi) {
  auto& arena = icn::util::scratch_arena();
  const icn::util::Arena::Frame frame(arena);
  recurse(tree.nodes(), x, phi, 0, Path{}, 1.0, 1.0, -1, arena);
}

std::vector<double> conditional_expectation_impl(
    const std::vector<TreeNode>& nodes, int node_id, std::span<const double> x,
    const std::vector<bool>& present) {
  const TreeNode& node = nodes[static_cast<std::size_t>(node_id)];
  if (node.is_leaf()) return node.value;
  const auto f = static_cast<std::size_t>(node.feature);
  if (present[f]) {
    const int next = x[f] <= node.threshold ? node.left : node.right;
    return conditional_expectation_impl(nodes, next, x, present);
  }
  const auto left =
      conditional_expectation_impl(nodes, node.left, x, present);
  const auto right =
      conditional_expectation_impl(nodes, node.right, x, present);
  const double wl = nodes[static_cast<std::size_t>(node.left)].cover;
  const double wr = nodes[static_cast<std::size_t>(node.right)].cover;
  std::vector<double> out(left.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = (wl * left[c] + wr * right[c]) / (wl + wr);
  }
  return out;
}

}  // namespace

Matrix tree_shap(const DecisionTree& tree, std::span<const double> x) {
  ICN_REQUIRE(tree.is_fitted(), "tree_shap on unfitted tree");
  Matrix phi(x.size(), static_cast<std::size_t>(tree.num_classes()));
  add_tree_shap(tree, x, phi);
  return phi;
}

std::vector<double> tree_base_values(const DecisionTree& tree) {
  ICN_REQUIRE(tree.is_fitted(), "base values on unfitted tree");
  // Node values are cover-weighted class distributions, so the root value is
  // exactly the cover-weighted mean over leaves.
  return tree.nodes().front().value;
}

Matrix forest_shap(const RandomForest& forest, std::span<const double> x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap on unfitted forest");
  Matrix acc(x.size(), static_cast<std::size_t>(forest.num_classes()));
  Matrix phi(acc.rows(), acc.cols());  // one tree's values, reused per tree
  for (const auto& tree : forest.trees()) {
    std::fill(phi.data().begin(), phi.data().end(), 0.0);
    add_tree_shap(tree, x, phi);
    for (std::size_t i = 0; i < acc.data().size(); ++i) {
      acc.data()[i] += phi.data()[i];
    }
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : acc.data()) v *= inv;
  return acc;
}

std::vector<Matrix> forest_shap_batch(const RandomForest& forest,
                                      const Matrix& x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap_batch on unfitted forest");
  std::vector<Matrix> out(x.rows());
  icn::util::parallel_for(0, x.rows(), 1,
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t r = lo; r < hi; ++r) {
                              out[r] = forest_shap(forest, x.row(r));
                            }
                          });
  return out;
}

std::vector<double> forest_base_values(const RandomForest& forest) {
  ICN_REQUIRE(forest.is_fitted(), "base values on unfitted forest");
  std::vector<double> base(static_cast<std::size_t>(forest.num_classes()),
                           0.0);
  for (const auto& tree : forest.trees()) {
    const auto b = tree_base_values(tree);
    for (std::size_t c = 0; c < base.size(); ++c) base[c] += b[c];
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : base) v *= inv;
  return base;
}

std::vector<double> tree_conditional_expectation(
    const DecisionTree& tree, std::span<const double> x,
    const std::vector<bool>& present) {
  ICN_REQUIRE(tree.is_fitted(), "conditional expectation on unfitted tree");
  ICN_REQUIRE(present.size() == x.size(), "present mask size");
  return conditional_expectation_impl(tree.nodes(), 0, x, present);
}

}  // namespace icn::ml
