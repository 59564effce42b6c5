#include "ml/metrics.h"

#include <algorithm>
#include <limits>

#include "ml/kernels.h"
#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// Validates labels and returns (k, per-cluster counts).
std::vector<std::size_t> cluster_counts(std::span<const int> labels) {
  ICN_REQUIRE(!labels.empty(), "empty labels");
  int k = 0;
  for (const int l : labels) {
    ICN_REQUIRE(l >= 0, "negative label");
    k = std::max(k, l + 1);
  }
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  for (const int l : labels) ++counts[static_cast<std::size_t>(l)];
  for (const std::size_t c : counts) {
    ICN_REQUIRE(c > 0, "empty cluster in labels");
  }
  ICN_REQUIRE(k >= 2, "validity indices require >= 2 clusters");
  return counts;
}

}  // namespace

double silhouette_score(const CondensedDistances& dist,
                        std::span<const int> labels) {
  ICN_REQUIRE(labels.size() == dist.size(), "labels vs distances size");
  const auto counts = cluster_counts(labels);
  const std::size_t n = labels.size();
  const std::size_t k = counts.size();
  // Linear-pass formulation: sums[i*k + c] = sum of d(i, j) over j != i with
  // labels[j] == c, assembled from condensed row tails so every distance is
  // read once from contiguous memory (the old per-point row scan read the
  // lower triangle through strided index arithmetic).
  //
  // For the chunk [lo, hi):
  //   forward  — row i's tail (j > i) feeds the dispatched labeled_sums
  //              kernel straight into sums row i;
  //   backward — the contributions with j < i live in the tails of earlier
  //              rows: tail(j) holds d(j, i) contiguously for i in
  //              [max(j+1, lo), hi), one strided += per element.
  // Cell (i, c) therefore receives its canonical forward value first, then
  // the j < i contributions in ascending-j order — a fixed order regardless
  // of chunk boundaries — and is written only by the chunk owning i, so the
  // score is identical at any grain, thread count, or steal schedule.
  std::vector<double> s(n, 0.0);
  std::vector<double> sums(n * k, 0.0);
  icn::util::parallel_for(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      labeled_sums(dist.row_tail(i), labels.subspan(i + 1), k,
                   &sums[i * k]);
    }
    for (std::size_t j = 0; j + 1 < hi; ++j) {
      const std::size_t first = std::max(j + 1, lo);
      const auto tail = dist.row_tail(j);
      const auto c = static_cast<std::size_t>(labels[j]);
      for (std::size_t i = first; i < hi; ++i) {
        sums[i * k + c] += tail[i - j - 1];
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const auto own = static_cast<std::size_t>(labels[i]);
      if (counts[own] == 1) {
        continue;  // s(i) = 0 for singletons
      }
      const double* row = &sums[i * k];
      const double a = row[own] / static_cast<double>(counts[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        if (c == own) continue;
        b = std::min(b, row[c] / static_cast<double>(counts[c]));
      }
      const double denom = std::max(a, b);
      if (denom > 0.0) s[i] = (b - a) / denom;
    }
  });
  double total = 0.0;
  for (const double v : s) total += v;
  return total / static_cast<double>(n);
}

double dunn_index(const CondensedDistances& dist,
                  std::span<const int> labels) {
  ICN_REQUIRE(labels.size() == dist.size(), "labels vs distances size");
  (void)cluster_counts(labels);
  const std::size_t n = labels.size();
  // Min/max reductions are order-independent, so per-chunk extrema combined
  // in any order give the exact serial result.
  struct Extrema {
    double min_inter = std::numeric_limits<double>::infinity();
    double max_diam = 0.0;
  };
  const Extrema ex = icn::util::parallel_reduce(
      std::size_t{0}, n, 8, Extrema{},
      [&](std::size_t lo, std::size_t hi) {
        Extrema e;
        for (std::size_t i = lo; i < hi; ++i) {
          labeled_extrema(dist.row_tail(i), labels.subspan(i + 1), labels[i],
                          &e.min_inter, &e.max_diam);
        }
        return e;
      },
      [](Extrema acc, Extrema e) {
        acc.min_inter = std::min(acc.min_inter, e.min_inter);
        acc.max_diam = std::max(acc.max_diam, e.max_diam);
        return acc;
      });
  if (ex.max_diam == 0.0) return std::numeric_limits<double>::infinity();
  return ex.min_inter / ex.max_diam;
}

namespace {

/// Per-cluster centroids and the validated cluster count.
struct Centroids {
  std::vector<std::vector<double>> mean;  ///< k x m
  std::vector<std::size_t> counts;
};

Centroids compute_centroids(const Matrix& x, std::span<const int> labels) {
  ICN_REQUIRE(x.rows() == labels.size(), "labels vs matrix size");
  Centroids c;
  c.counts = cluster_counts(labels);
  const std::size_t k = c.counts.size();
  c.mean.assign(k, std::vector<double>(x.cols(), 0.0));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    auto& mean = c.mean[static_cast<std::size_t>(labels[i])];
    for (std::size_t f = 0; f < x.cols(); ++f) mean[f] += row[f];
  }
  for (std::size_t cl = 0; cl < k; ++cl) {
    for (auto& v : c.mean[cl]) v /= static_cast<double>(c.counts[cl]);
  }
  return c;
}

}  // namespace

double davies_bouldin_index(const Matrix& x, std::span<const int> labels) {
  const Centroids c = compute_centroids(x, labels);
  const std::size_t k = c.counts.size();
  // Mean distance of each cluster's points to its centroid (scatter).
  std::vector<double> scatter(k, 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto cl = static_cast<std::size_t>(labels[i]);
    scatter[cl] += euclidean(x.row(i), c.mean[cl]);
  }
  for (std::size_t cl = 0; cl < k; ++cl) {
    scatter[cl] /= static_cast<double>(c.counts[cl]);
  }
  double total = 0.0;
  for (std::size_t a = 0; a < k; ++a) {
    double worst = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      if (a == b) continue;
      const double d = euclidean(c.mean[a], c.mean[b]);
      ICN_REQUIRE(d > 0.0, "coincident cluster centroids");
      worst = std::max(worst, (scatter[a] + scatter[b]) / d);
    }
    total += worst;
  }
  return total / static_cast<double>(k);
}

double calinski_harabasz_index(const Matrix& x, std::span<const int> labels) {
  const Centroids c = compute_centroids(x, labels);
  const std::size_t k = c.counts.size();
  const std::size_t n = x.rows();
  ICN_REQUIRE(k < n, "Calinski-Harabasz requires k < n");
  // Global centroid.
  std::vector<double> global(x.cols(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = x.row(i);
    for (std::size_t f = 0; f < x.cols(); ++f) global[f] += row[f];
  }
  for (auto& v : global) v /= static_cast<double>(n);
  double between = 0.0;
  for (std::size_t cl = 0; cl < k; ++cl) {
    between += static_cast<double>(c.counts[cl]) *
               squared_euclidean(c.mean[cl], global);
  }
  double within = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    within += squared_euclidean(
        x.row(i), c.mean[static_cast<std::size_t>(labels[i])]);
  }
  ICN_REQUIRE(within > 0.0, "degenerate within-cluster scatter");
  return (between / static_cast<double>(k - 1)) /
         (within / static_cast<double>(n - k));
}

double accuracy(std::span<const int> pred, std::span<const int> truth) {
  ICN_REQUIRE(pred.size() == truth.size() && !pred.empty(), "accuracy sizes");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == truth[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace icn::ml
