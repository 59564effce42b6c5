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

/// s(i) from row i's per-cluster distance sums (sums[c] = sum of d(i, j)
/// over j != i with labels[j] == c): 0 for a singleton, and 0 when a and b
/// are both 0.
double point_silhouette(const double* sums,
                        std::span<const std::size_t> counts, std::size_t own) {
  if (counts[own] == 1) return 0.0;
  const double a = sums[own] / static_cast<double>(counts[own] - 1);
  double b = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (c == own) continue;
    b = std::min(b, sums[c] / static_cast<double>(counts[c]));
  }
  const double denom = std::max(a, b);
  return denom > 0.0 ? (b - a) / denom : 0.0;
}

/// Serial sum in index order, divided by the count.
double mean_in_order(std::span<const double> s) {
  double total = 0.0;
  for (const double v : s) total += v;
  return total / static_cast<double>(s.size());
}

/// Running Dunn extrema. labeled_extrema never lets a NaN into them, so
/// min/max fold to the same values under any grouping of the rows.
struct Extrema {
  double min_inter = std::numeric_limits<double>::infinity();
  double max_diam = 0.0;
};

Extrema fold(Extrema acc, const Extrema& e) {
  acc.min_inter = std::min(acc.min_inter, e.min_inter);
  acc.max_diam = std::max(acc.max_diam, e.max_diam);
  return acc;
}

double dunn_from(const Extrema& e) {
  if (e.max_diam == 0.0) return std::numeric_limits<double>::infinity();
  return e.min_inter / e.max_diam;
}

/// Rows per chunk of the validity sweep: the chunk's full distance rows
/// (kSweepChunk * n doubles) are its only O(n) buffer.
constexpr std::size_t kSweepChunk = 16;

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
      s[i] = point_silhouette(&sums[i * k], counts,
                              static_cast<std::size_t>(labels[i]));
    }
  });
  return mean_in_order(s);
}

double dunn_index(const CondensedDistances& dist,
                  std::span<const int> labels) {
  ICN_REQUIRE(labels.size() == dist.size(), "labels vs distances size");
  (void)cluster_counts(labels);
  const std::size_t n = labels.size();
  return dunn_from(icn::util::parallel_reduce(
      std::size_t{0}, n, 8, Extrema{},
      [&](std::size_t lo, std::size_t hi) {
        Extrema e;
        for (std::size_t i = lo; i < hi; ++i) {
          labeled_extrema(dist.row_tail(i), labels.subspan(i + 1), labels[i],
                          &e.min_inter, &e.max_diam);
        }
        return e;
      },
      fold));
}

std::vector<ClusterValidity> validity_sweep(
    const Matrix& x, std::span<const std::vector<int>> cuts) {
  if (cuts.empty()) return {};
  const std::size_t n = x.rows();
  std::vector<std::vector<std::size_t>> counts;
  counts.reserve(cuts.size());
  std::size_t max_k = 0;
  for (const std::vector<int>& cut : cuts) {
    ICN_REQUIRE(cut.size() == n, "labels vs matrix size");
    counts.push_back(cluster_counts(cut));
    max_k = std::max(max_k, counts.back().size());
  }
  const std::size_t num_cuts = cuts.size();
  // Each chunk of kSweepChunk rows computes its rows' full distance rows once
  // and scores every cut from them; no pairwise matrix is held. Per cut the
  // chunk repeats silhouette_score's steps on the same values (see
  // fill_distance_rows): the forward labeled_sums call on row i's tail, then
  // the j < i terms in ascending j — read from row i's own distance row
  // instead of earlier rows' tails — so every sum cell gets the same adds in
  // the same order, and each row's sums live only in its chunk. s(i) is kept
  // per (cut, row) and summed serially in index order. The Dunn extrema come
  // from dunn_index's labeled_extrema calls on the same tails, folded per
  // chunk.
  std::vector<double> s(num_cuts * n);
  const std::vector<Extrema> extrema = icn::util::parallel_reduce(
      std::size_t{0}, n, kSweepChunk, std::vector<Extrema>(num_cuts),
      [&](std::size_t lo, std::size_t hi) {
        const std::size_t rows = hi - lo;
        std::vector<double> d(rows * n);
        fill_distance_rows(x, lo, hi, d);
        std::vector<double> sums(rows * max_k);
        std::vector<Extrema> ex(num_cuts);
        for (std::size_t c = 0; c < num_cuts; ++c) {
          const std::span<const int> labels = cuts[c];
          const std::size_t k = counts[c].size();
          std::fill_n(sums.begin(), rows * k, 0.0);
          for (std::size_t i = lo; i < hi; ++i) {
            const std::span<const double> tail(
                d.data() + (i - lo) * n + i + 1, n - i - 1);
            labeled_sums(tail, labels.subspan(i + 1), k, &sums[(i - lo) * k]);
            labeled_extrema(tail, labels.subspan(i + 1), labels[i],
                            &ex[c].min_inter, &ex[c].max_diam);
          }
          for (std::size_t j = 0; j + 1 < hi; ++j) {
            const auto cj = static_cast<std::size_t>(labels[j]);
            for (std::size_t i = std::max(j + 1, lo); i < hi; ++i) {
              sums[(i - lo) * k + cj] += d[(i - lo) * n + j];
            }
          }
          for (std::size_t i = lo; i < hi; ++i) {
            s[c * n + i] = point_silhouette(
                &sums[(i - lo) * k], counts[c],
                static_cast<std::size_t>(labels[i]));
          }
        }
        return ex;
      },
      [](std::vector<Extrema> acc, const std::vector<Extrema>& ex) {
        for (std::size_t c = 0; c < acc.size(); ++c) {
          acc[c] = fold(acc[c], ex[c]);
        }
        return acc;
      });
  std::vector<ClusterValidity> out(num_cuts);
  for (std::size_t c = 0; c < num_cuts; ++c) {
    out[c].silhouette = mean_in_order({&s[c * n], n});
    out[c].dunn = dunn_from(extrema[c]);
  }
  return out;
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
