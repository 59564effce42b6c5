// Cluster-validity indices used as the k-selection criteria in Sec. 4.2:
// the Silhouette score (Rousseeuw 1987) and the Dunn index (Dunn 1973).
#pragma once

#include <span>
#include <vector>

#include "ml/distance.h"
#include "ml/matrix.h"

namespace icn::ml {

/// Mean Silhouette coefficient over all points, in [-1, 1].
///
/// a(i) = mean distance to the other members of i's cluster (0 for
/// singletons, whose s(i) is defined as 0); b(i) = smallest mean distance to
/// the members of any other cluster; s(i) = (b-a)/max(a,b).
/// Requires labels in [0, k), at least 2 non-empty clusters, and
/// labels.size() == dist.size().
[[nodiscard]] double silhouette_score(const CondensedDistances& dist,
                                      std::span<const int> labels);

/// Dunn index: (minimum single-linkage inter-cluster distance) /
/// (maximum cluster diameter). Larger is better; > 0 for well-separated
/// clusterings. Requires >= 2 non-empty clusters; returns +inf when every
/// cluster is a singleton (zero diameter).
[[nodiscard]] double dunn_index(const CondensedDistances& dist,
                                std::span<const int> labels);

/// Silhouette score and Dunn index of one clustering.
struct ClusterValidity {
  double silhouette = 0.0;
  double dunn = 0.0;
};

/// silhouette_score and dunn_index of every cut (one label per row of X), in
/// cut order, byte-identical to the per-cut functions over
/// CondensedDistances(x) at any thread count, without holding that matrix:
/// rows run in fixed chunks that compute their full distance rows
/// (fill_distance_rows) and score every cut from them, so memory grows
/// linearly in X.rows(). Each cut has silhouette_score's preconditions
/// (X.rows() labels in [0, k), no empty cluster, k >= 2). An empty `cuts`
/// gives an empty result.
[[nodiscard]] std::vector<ClusterValidity> validity_sweep(
    const Matrix& x, std::span<const std::vector<int>> cuts);

/// Davies-Bouldin index: mean over clusters of the worst
/// (scatter_i + scatter_j) / centroid-distance ratio. Lower is better;
/// 0 for well-separated point clusters. Requires >= 2 non-empty clusters.
[[nodiscard]] double davies_bouldin_index(const Matrix& x,
                                          std::span<const int> labels);

/// Calinski-Harabasz index (variance-ratio criterion):
/// [B/(k-1)] / [W/(n-k)] with B/W the between/within-cluster sum of
/// squares. Higher is better. Requires 2 <= k < n.
[[nodiscard]] double calinski_harabasz_index(const Matrix& x,
                                             std::span<const int> labels);

/// Classification accuracy: fraction of positions where pred == truth.
/// Requires equal non-zero sizes.
[[nodiscard]] double accuracy(std::span<const int> pred,
                              std::span<const int> truth);

}  // namespace icn::ml
