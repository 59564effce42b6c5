#include "ml/tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// Nodes with fewer rows than this sort their keys with std::sort; above it
/// the LSD radix's linear passes beat the comparison sort.
constexpr std::size_t kRadixCutoff = 128;

/// Split-search keys are (rank << 32) | label.
std::uint32_t key_rank(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

/// Orders keys by rank; keys of one rank end up in no particular order,
/// which the split search never sees (a cut point only falls between two
/// ranks, and the class counts left of it are the same whatever the order
/// within a rank). Sorts in place with std::sort below kRadixCutoff, else
/// with one stable LSD radix pass per byte of `levels - 1` (the largest
/// rank), ping-ponging through `spare`. Returns whichever buffer holds the
/// result.
std::span<const std::uint64_t> sort_by_rank(std::span<std::uint64_t> keys,
                                            std::span<std::uint64_t> spare,
                                            std::size_t levels) {
  const std::size_t n = keys.size();
  if (n < kRadixCutoff) {
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  std::size_t passes = 0;
  for (std::size_t top = levels - 1; top != 0; top >>= 8) ++passes;
  std::array<std::array<std::uint32_t, 256>, 4> hist{};
  for (const std::uint64_t key : keys) {
    std::uint32_t rank = key_rank(key);
    for (std::size_t p = 0; p < passes; ++p, rank >>= 8) ++hist[p][rank & 0xFF];
  }
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = spare.data();
  for (std::size_t p = 0; p < passes; ++p) {
    std::array<std::uint32_t, 256>& offset = hist[p];
    const unsigned shift = 32 + 8 * static_cast<unsigned>(p);
    // Every key shares this byte: the pass would copy them unchanged.
    if (offset[(src[0] >> shift) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& slot : offset) sum += std::exchange(slot, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(src[i] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return {src, n};
}

/// Best cut of a node: its Gini gain, feature, and the ranks either side.
struct Split {
  double gain = 0.0;
  std::size_t feature = 0;
  std::uint32_t below = 0;  ///< Highest rank going left.
  std::uint32_t above = 0;  ///< Lowest rank going right.
};

/// Scans every candidate feature's cut points for the largest Gini gain.
/// Class counts are integers, so each Σcount² below is exact (it stays under
/// 2^53 for any node of fewer than 2^26 rows) and is kept up to date per
/// element instead of being re-summed over the classes at every cut: the
/// gain at a cut comes out bit for bit as the per-cut sum gives it.
/// `labels`, `keys` and `spare` hold at least idx.size() slots and `left`
/// counts.size(); their contents on entry do not matter.
Split best_split(const FeatureRanks& ranks, std::span<const int> y,
                 std::span<const std::uint32_t> idx,
                 std::span<const std::size_t> features,
                 std::span<const std::int64_t> counts, std::int64_t node_sq,
                 double node_gini, std::size_t min_samples_leaf,
                 std::span<std::uint64_t> labels, std::span<std::uint64_t> keys,
                 std::span<std::uint64_t> spare, std::span<std::int64_t> left) {
  const std::size_t n = idx.size();
  const double node_n = static_cast<double>(n);
  const double min_leaf = static_cast<double>(min_samples_leaf);
  labels = labels.first(n);
  keys = keys.first(n);
  spare = spare.first(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::uint32_t>(y[idx[i]]);
  }

  Split best;
  for (const std::size_t f : features) {
    const std::span<const std::uint32_t> column = ranks.ranks(f);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = (std::uint64_t{column[idx[i]]} << 32) | labels[i];
    }
    const std::span<const std::uint64_t> sorted =
        sort_by_rank(keys, spare, ranks.values(f).size());
    if (key_rank(sorted.front()) == key_rank(sorted.back())) continue;
    std::fill(left.begin(), left.end(), 0);
    std::int64_t left_sq = 0;
    std::int64_t right_sq = node_sq;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto c = static_cast<std::uint32_t>(sorted[i]);
      const std::int64_t moved = left[c]++;
      left_sq += 2 * moved + 1;                  // (l + 1)² − l²
      right_sq -= 2 * (counts[c] - moved) - 1;   // r² − (r − 1)²
      const std::uint32_t rank = key_rank(sorted[i]);
      const std::uint32_t next = key_rank(sorted[i + 1]);
      if (rank == next) continue;  // not a cut point
      const double nl = static_cast<double>(i + 1);
      const double nr = node_n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double gini_l = 1.0 - static_cast<double>(left_sq) / (nl * nl);
      const double gini_r = 1.0 - static_cast<double>(right_sq) / (nr * nr);
      const double gain =
          node_gini - (nl / node_n) * gini_l - (nr / node_n) * gini_r;
      if (gain > best.gain + 1e-12) best = Split{gain, f, rank, next};
    }
  }
  return best;
}

}  // namespace

/// Fit sizes these for the root node and build reuses them at every node: a
/// node is done with them before its children are built, and no node has
/// more rows than the root.
struct DecisionTree::SplitScratch {
  SplitScratch(std::size_t rows, std::size_t classes, std::size_t columns)
      : labels(rows),
        keys(rows),
        spare(rows),
        counts(classes),
        left(classes),
        features(columns) {}

  std::vector<std::uint64_t> labels, keys, spare;
  std::vector<std::int64_t> counts, left;
  std::vector<std::size_t> features;
};

FeatureRanks::FeatureRanks(const Matrix& x)
    : rows_(x.rows()),
      cols_(x.cols()),
      ranks_(x.rows() * x.cols()),
      values_(x.rows() * x.cols()),
      levels_(x.cols()) {
  ICN_REQUIRE(rows_ > 0 && rows_ <= std::numeric_limits<std::uint32_t>::max(),
              "rank table row count");
  ICN_REQUIRE(std::all_of(x.data().begin(), x.data().end(),
                          [](double v) { return std::isfinite(v); }),
              "tree features must be finite");
  struct Entry {
    double value;
    std::uint32_t row;
  };
  icn::util::parallel_for(0, cols_, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<Entry> order(rows_);
    for (std::size_t f = lo; f < hi; ++f) {
      for (std::size_t i = 0; i < rows_; ++i) {
        order[i] = Entry{x(i, f), static_cast<std::uint32_t>(i)};
      }
      std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
        return a.value < b.value;
      });
      std::uint32_t* rank = ranks_.data() + f * rows_;
      double* value = values_.data() + f * rows_;
      std::size_t level = 0;
      value[0] = order[0].value;
      for (const Entry& e : order) {
        // -0.0 == +0.0, so the two zeros share a rank; either one stands for
        // it, as both give the same sums and comparisons with other values.
        if (e.value != value[level]) value[++level] = e.value;
        rank[e.row] = static_cast<std::uint32_t>(level);
      }
      levels_[f] = level + 1;
    }
  });
}

void DecisionTree::fit(const Matrix& x, std::span<const int> y,
                       int num_classes, const Params& params,
                       icn::util::Rng& rng,
                       std::span<const std::size_t> sample_idx) {
  fit(FeatureRanks(x), y, num_classes, params, rng, sample_idx);
}

void DecisionTree::fit(const FeatureRanks& ranks, std::span<const int> y,
                       int num_classes, const Params& params,
                       icn::util::Rng& rng,
                       std::span<const std::size_t> sample_idx) {
  ICN_REQUIRE(ranks.rows() == y.size(), "tree fit input shape");
  ICN_REQUIRE(num_classes >= 1, "tree fit num_classes");
  for (const int label : y) {
    ICN_REQUIRE(label >= 0 && label < num_classes, "tree fit label range");
  }
  nodes_.clear();
  num_classes_ = num_classes;
  num_features_ = ranks.cols();

  std::vector<std::uint32_t> idx;
  if (sample_idx.empty()) {
    idx.resize(ranks.rows());
    std::iota(idx.begin(), idx.end(), std::uint32_t{0});
  } else {
    idx.reserve(sample_idx.size());
    for (const std::size_t i : sample_idx) {
      ICN_REQUIRE(i < ranks.rows(), "tree fit sample index");
      idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  SplitScratch scratch(idx.size(), static_cast<std::size_t>(num_classes),
                       num_features_);
  build(ranks, y, params, rng, idx, 0, scratch);
}

int DecisionTree::build(const FeatureRanks& ranks, std::span<const int> y,
                        const Params& params, icn::util::Rng& rng,
                        std::span<std::uint32_t> idx, std::size_t depth,
                        SplitScratch& scratch) {
  const std::size_t n = idx.size();
  const auto k = static_cast<std::size_t>(num_classes_);
  const double node_n = static_cast<double>(n);
  const int node_id = static_cast<int>(nodes_.size());

  Split best;
  {
    // The node is done with its scratch here, before its children are built.
    std::vector<std::int64_t>& counts = scratch.counts;
    std::fill(counts.begin(), counts.end(), 0);
    for (const std::uint32_t i : idx) ++counts[static_cast<std::size_t>(y[i])];
    std::int64_t node_sq = 0;
    for (const std::int64_t c : counts) node_sq += c * c;
    const double node_gini =
        1.0 - static_cast<double>(node_sq) / (node_n * node_n);

    TreeNode& node = nodes_.emplace_back();
    node.cover = node_n;
    node.value.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      node.value[c] = static_cast<double>(counts[c]) / node_n;
    }
    const bool pure = node_gini == 0.0;
    if (pure || depth >= params.max_depth || n < params.min_samples_split) {
      return node_id;
    }

    // Candidate features: a random subset of size max_features (all when 0).
    std::vector<std::size_t>& features = scratch.features;
    std::iota(features.begin(), features.end(), std::size_t{0});
    const std::size_t mtry = params.max_features == 0
                                 ? num_features_
                                 : std::min(params.max_features, num_features_);
    // Partial Fisher-Yates: the first mtry entries become the candidate set.
    for (std::size_t i = 0; i < mtry; ++i) {
      const std::size_t j = i + rng.uniform_index(num_features_ - i);
      std::swap(features[i], features[j]);
    }
    best = best_split(ranks, y, idx, std::span(features).first(mtry), counts,
                      node_sq, node_gini, params.min_samples_leaf,
                      scratch.labels, scratch.keys, scratch.spare,
                      scratch.left);
  }
  if (best.gain <= 0.0) return node_id;

  // The midpoint of the two values either side of the cut, and the rule
  // predict_proba applies to it. A rank's stored value compares with the
  // threshold as every row value of that rank does.
  const std::span<const double> values = ranks.values(best.feature);
  const double threshold = 0.5 * (values[best.below] + values[best.above]);
  const std::span<const std::uint32_t> column = ranks.ranks(best.feature);
  const auto mid_it =
      std::partition(idx.begin(), idx.end(), [&](std::uint32_t i) {
        return values[column[i]] <= threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == 0 || mid == n) return node_id;  // numerical edge: no split

  const int left_id =
      build(ranks, y, params, rng, idx.first(mid), depth + 1, scratch);
  const int right_id =
      build(ranks, y, params, rng, idx.subspan(mid), depth + 1, scratch);
  TreeNode& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = static_cast<int>(best.feature);
  node.threshold = threshold;
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

const std::vector<double>& DecisionTree::predict_proba(
    std::span<const double> x) const {
  ICN_REQUIRE(is_fitted(), "predict on unfitted tree");
  ICN_REQUIRE(x.size() == num_features_, "predict feature count");
  const TreeNode* node = &nodes_.front();
  while (!node->is_leaf()) {
    const std::size_t f = static_cast<std::size_t>(node->feature);
    node = &nodes_[static_cast<std::size_t>(
        x[f] <= node->threshold ? node->left : node->right)];
  }
  return node->value;
}

}  // namespace icn::ml
