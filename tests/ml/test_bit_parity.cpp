// Bit parity of the restructured analysis stages against their reference
// implementations, at several thread counts: the memoised tree-major
// TreeSHAP walk against the per-row recursion, the dense x4 Ward scan
// against the slot scan, and the one-pass validity sweep against per-cut
// silhouette_score/dunn_index over a condensed matrix. Every comparison is
// memcmp, not a tolerance. The suite also runs under ICN_SIMD=scalar
// (tests/CMakeLists.txt), so both kernel lanes are covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "ml/distance.h"
#include "ml/forest.h"
#include "ml/linkage.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/treeshap.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

#include "reference_linkage.h"
#include "reference_tree.h"

namespace icn::ml {
namespace {

using icn::util::ThreadPool;

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Noisy 4-class data whose label mixes every feature, so trees split on
/// all of them and grow to their depth cap.
Matrix noisy_data(std::size_t n, std::size_t features, std::uint64_t seed,
                  std::vector<int>* y) {
  icn::util::Rng rng(seed);
  Matrix x(n, features);
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      x(i, f) = rng.uniform(-1.0, 1.0);
      signal += std::sin((7.0 - static_cast<double>(f)) * x(i, f));
    }
    int label = static_cast<int>(std::floor(2.0 * signal + 40.0)) % 4;
    if (rng.uniform(0.0, 1.0) < 0.2) {
      label = static_cast<int>(rng.uniform_index(4));
    }
    y->push_back(label);
  }
  return x;
}

TEST(ForestShapTest, MemoisedBatchMatchesReferenceBitForBit) {
  // Over 2 features split features repeat along every deep path (the unwind
  // branch); over 8, paths grow long. The batch holds distinct rows, exact
  // duplicates and near-duplicates, so memo entries are both filled and hit.
  // 385 = 384 + 1 rows: at 1 and 2 threads forest_shap_batch cuts them into
  // four 96-row chunks and a last chunk of one row; at 8 threads into eight
  // chunks of at most 49, one lane's share.
  for (const std::size_t features : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << features << " features");
    std::vector<int> y;
    const Matrix train = noisy_data(400, features, 31, &y);
    RandomForest forest;
    RandomForest::Params params;
    params.num_trees = 12;
    params.max_depth = 12;
    params.max_features = features == 2 ? 1 : 3;
    params.seed = 17;
    forest.fit(train, y, 4, params);

    icn::util::Rng rng(5);
    Matrix batch(385, features);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      const std::size_t src = r < 200 ? r : rng.uniform_index(200);
      for (std::size_t f = 0; f < features; ++f) {
        double v = train(src, f);
        if (r >= 300) v += rng.uniform(-1e-3, 1e-3);  // near-duplicate
        batch(r, f) = v;
      }
    }
    std::vector<Matrix> want;
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      want.push_back(reference::forest_shap(forest, batch.row(r)));
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool::ScopedOverride pool(threads);
      const std::vector<Matrix> got = forest_shap_batch(forest, batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_TRUE(same_bits(got[r], want[r]))
            << threads << " threads, row " << r;
      }
    }
    // The one-row entry points run the same walk without a memo.
    for (std::size_t r = 0; r < batch.rows(); r += 7) {
      ASSERT_TRUE(same_bits(forest_shap(forest, batch.row(r)), want[r]))
          << "forest_shap row " << r;
      for (const DecisionTree& tree : forest.trees()) {
        ASSERT_TRUE(same_bits(tree_shap(tree, batch.row(r)),
                              reference::tree_shap(tree, batch.row(r))))
            << "tree_shap row " << r;
      }
    }
  }
}

TEST(ForestShapTest, LeavesDeeperThanTheMemoKeyMatchReference) {
  // One row per class on a line: every cut ties on Gini, the first wins, and
  // the tree becomes a chain whose deepest leaves sit below the 64 levels
  // the memo key can encode. The row at the far end and the rows past
  // position 64 take the same first 64 decisions into the deepest leaf but
  // leave the chain at different depths below it, so a key cut to 64 bits
  // would hand one of them the other's contribution.
  constexpr std::size_t kRows = 80;
  Matrix x(kRows, 1);
  std::vector<int> y;
  for (std::size_t i = 0; i < kRows; ++i) {
    x(i, 0) = static_cast<double>(i);
    y.push_back(static_cast<int>(i));
  }
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 1;
  params.max_depth = 200;
  params.bootstrap = false;
  forest.fit(x, y, static_cast<int>(kRows), params);
  const auto& nodes = forest.trees().front().nodes();
  std::vector<std::size_t> depth(nodes.size(), 0);  // children follow parents
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    deepest = std::max(deepest, depth[i]);
    if (nodes[i].is_leaf()) continue;
    depth[static_cast<std::size_t>(nodes[i].left)] = depth[i] + 1;
    depth[static_cast<std::size_t>(nodes[i].right)] = depth[i] + 1;
  }
  ASSERT_EQ(deepest, kRows - 1);  // a chain, deeper than 64 levels
  const std::vector<Matrix> got = forest_shap_batch(forest, x);
  for (std::size_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(same_bits(got[r], reference::forest_shap(forest, x.row(r))))
        << "row " << r;
    ASSERT_TRUE(same_bits(tree_shap(forest.trees().front(), x.row(r)),
                          reference::tree_shap(forest.trees().front(),
                                               x.row(r))))
        << "row " << r;
  }
}

/// n x m rows with heavy ties: integer coordinates on a small grid, and
/// every fourth row an exact copy of an earlier one.
Matrix tied_rows(std::size_t n, std::size_t m, std::uint64_t seed) {
  icn::util::Rng rng(seed);
  Matrix x(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = r % 4 == 3 ? rng.uniform_index(r) : r;
    for (std::size_t f = 0; f < m; ++f) {
      x(r, f) = src == r ? static_cast<double>(rng.uniform_index(3)) +
                               (f % 2 == 0 ? 0.0 : rng.normal() * 0.25)
                         : x(src, f);
    }
  }
  return x;
}

TEST(LinkageTest, WardDenseScanMatchesSlotScanReferenceBitForBit) {
  // n = 257 and 1000 are not multiples of 4, and their chains compact the
  // dense array many times; m = 1, 3 and 73 cover the kernels' tails.
  for (const std::size_t n : {1u, 2u, 5u, 257u, 1000u}) {
    for (const std::size_t m : {1u, 3u, 73u}) {
      const Matrix x = tied_rows(n, m, 1000 * n + m);
      const Dendrogram want = reference::ward_slot_scan(x);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message()
                     << "n " << n << " m " << m << " threads " << threads);
        ThreadPool::ScopedOverride pool(threads);
        const Dendrogram got = agglomerative_cluster(x, Linkage::kWard);
        ASSERT_EQ(got.merges().size(), want.merges().size());
        for (std::size_t t = 0; t < got.merges().size(); ++t) {
          const Merge& a = got.merges()[t];
          const Merge& b = want.merges()[t];
          ASSERT_EQ(a.left, b.left) << "merge " << t;
          ASSERT_EQ(a.right, b.right) << "merge " << t;
          ASSERT_EQ(a.size, b.size) << "merge " << t;
          ASSERT_EQ(std::memcmp(&a.height, &b.height, sizeof(double)), 0)
              << "merge " << t;
        }
      }
    }
  }
}

/// n x m rows around a few Gaussian centres, every fifth row an exact copy
/// of an earlier one, so some distances are exactly 0.
Matrix blob_rows(std::size_t n, std::size_t m, std::uint64_t seed) {
  icn::util::Rng rng(seed);
  Matrix centres(4, m);
  for (auto& v : centres.data()) v = rng.uniform(-4.0, 4.0);
  Matrix x(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = r % 5 == 4 ? rng.uniform_index(r) : r;
    const std::size_t centre = rng.uniform_index(4);
    for (std::size_t f = 0; f < m; ++f) {
      x(r, f) = src == r ? centres(centre, f) + rng.normal() : x(src, f);
    }
  }
  return x;
}

/// A cut of n rows into k clusters drawn at random (so not nested in any
/// other cut), each cluster seeded by one row at a random position.
std::vector<int> random_cut(std::size_t n, int k, icn::util::Rng& rng) {
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i < static_cast<std::size_t>(k)
                    ? static_cast<int>(i)
                    : static_cast<int>(rng.uniform_index(
                          static_cast<std::uint64_t>(k)));
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.uniform_index(i)]);
  }
  return labels;
}

TEST(DistanceRowsTest, MatchCondensedDistancesBitForBit) {
  // Rows on both sides of the diagonal, n and m off multiples of 4 and 64.
  for (const std::size_t n : {1u, 5u, 67u, 130u}) {
    for (const std::size_t m : {1u, 3u, 73u}) {
      const Matrix x = blob_rows(n, m, 10 * n + m);
      const CondensedDistances dist(x);
      for (const std::size_t lo : {std::size_t{0}, n / 3, n - 1}) {
        const std::size_t hi = std::min(n, lo + 17);
        std::vector<double> rows((hi - lo) * n, -1.0);
        fill_distance_rows(x, lo, hi, rows);
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double want = dist(i, j);
            ASSERT_EQ(std::memcmp(&rows[(i - lo) * n + j], &want,
                                  sizeof(double)),
                      0)
                << "n " << n << " m " << m << " d(" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(ValiditySweepTest, MatchesPerCutReferenceBitForBit) {
  // n = 3, 17, 257 and 1000 are not multiples of 4 or of the 16-row chunk;
  // m = 1, 3 and 73 cover the distance kernels' tails. Each cut set holds
  // the nested Ward cuts k = 2..15, cuts that are not nested, one with a
  // singleton cluster, and k up to 15 (past the AVX2 kernel's first
  // 8-cluster group).
  for (const std::size_t n : {3u, 17u, 257u, 1000u}) {
    for (const std::size_t m : {1u, 3u, 73u}) {
      const Matrix x = blob_rows(n, m, 1000 * n + m);
      const Dendrogram ward = agglomerative_cluster(x, Linkage::kWard);
      std::vector<std::vector<int>> cuts;
      for (std::size_t k = 2; k <= std::min<std::size_t>(15, n); ++k) {
        cuts.push_back(ward.cut(k));
      }
      icn::util::Rng rng(n + m);
      for (const int k : {2, 5, 12}) {
        if (static_cast<std::size_t>(k) <= n) {
          cuts.push_back(random_cut(n, k, rng));
        }
      }
      std::vector<int> singleton(n);
      for (std::size_t i = 0; i < n; ++i) singleton[i] = i < n / 2 ? 0 : 1;
      singleton[n / 2] = 2;
      cuts.push_back(singleton);

      const CondensedDistances dist(x);
      std::vector<ClusterValidity> want;
      for (const auto& cut : cuts) {
        want.push_back({silhouette_score(dist, cut), dunn_index(dist, cut)});
      }
      for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message()
                     << "n " << n << " m " << m << " threads " << threads);
        ThreadPool::ScopedOverride pool(threads);
        const std::vector<ClusterValidity> got = validity_sweep(x, cuts);
        ASSERT_EQ(got.size(), cuts.size());
        for (std::size_t c = 0; c < cuts.size(); ++c) {
          ASSERT_EQ(std::memcmp(&got[c].silhouette, &want[c].silhouette,
                                sizeof(double)),
                    0)
              << "cut " << c << ": " << got[c].silhouette << " vs "
              << want[c].silhouette;
          ASSERT_EQ(
              std::memcmp(&got[c].dunn, &want[c].dunn, sizeof(double)), 0)
              << "cut " << c << ": " << got[c].dunn << " vs " << want[c].dunn;
        }
      }
    }
  }
}

TEST(ValiditySweepTest, RejectsWhatSilhouetteScoreRejects) {
  const Matrix x = blob_rows(6, 3, 7);
  const CondensedDistances dist(x);
  const std::vector<int> good = {0, 1, 0, 1, 0, 1};
  const std::vector<std::vector<int>> bad = {
      {0, 1, 0, 1, 0},     // wrong size
      {0, 2, 0, 2, 0, 2},  // cluster 1 empty
      {0, 0, 0, 0, 0, 0},  // a single cluster
      {0, 1, -1, 1, 0, 1},  // negative label
  };
  for (const auto& cut : bad) {
    EXPECT_THROW((void)silhouette_score(dist, cut),
                 icn::util::PreconditionError);
    const std::vector<std::vector<int>> alone = {cut};
    const std::vector<std::vector<int>> after_a_good_one = {good, cut};
    EXPECT_THROW((void)validity_sweep(x, alone), icn::util::PreconditionError);
    EXPECT_THROW((void)validity_sweep(x, after_a_good_one),
                 icn::util::PreconditionError);
  }
  EXPECT_TRUE(validity_sweep(x, {}).empty());
}

}  // namespace
}  // namespace icn::ml
