#include "core/clustering.h"

#include <algorithm>
#include <cmath>

#include "ml/metrics.h"
#include "util/error.h"

namespace icn::core {

ClusterAnalysisResult analyze_clusters(const ml::Matrix& features,
                                       const ClusterAnalysisParams& params) {
  ICN_REQUIRE(params.k_min >= 2 && params.k_min <= params.k_max,
              "k range");
  ICN_REQUIRE(features.rows() > params.k_max, "need more samples than k_max");
  ClusterAnalysisResult result;
  result.dendrogram = ml::agglomerative_cluster(features, params.linkage);

  // One pass over the features scores every cut of the sweep.
  std::vector<std::vector<int>> cuts;
  for (std::size_t k = params.k_min; k <= params.k_max; ++k) {
    cuts.push_back(result.dendrogram.cut(k));
  }
  const auto validity = ml::validity_sweep(features, cuts);
  result.sweep.reserve(cuts.size());
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    result.sweep.push_back(
        {params.k_min + t, validity[t].silhouette, validity[t].dunn});
  }

  result.chosen_k =
      params.chosen_k != 0 ? params.chosen_k : suggest_k(result.sweep);
  result.labels = result.dendrogram.cut(result.chosen_k);
  return result;
}

std::size_t suggest_k(const std::vector<KSelectionPoint>& sweep) {
  ICN_REQUIRE(sweep.size() >= 2, "sweep too short");
  // Normalize each metric to its max over the sweep, then pick the k whose
  // drop to k+1 is steepest (the "high value followed by an abrupt drop").
  double max_sil = 0.0, max_dunn = 0.0;
  for (const auto& p : sweep) {
    max_sil = std::max(max_sil, std::fabs(p.silhouette));
    max_dunn = std::max(max_dunn, std::fabs(p.dunn));
  }
  if (max_sil == 0.0) max_sil = 1.0;
  if (max_dunn == 0.0) max_dunn = 1.0;
  std::size_t best_k = sweep.front().k;
  double best_drop = -1.0;
  for (std::size_t i = 0; i + 1 < sweep.size(); ++i) {
    const double drop =
        (sweep[i].silhouette - sweep[i + 1].silhouette) / max_sil +
        (sweep[i].dunn - sweep[i + 1].dunn) / max_dunn;
    if (drop > best_drop) {
      best_drop = drop;
      best_k = sweep[i].k;
    }
  }
  return best_k;
}

}  // namespace icn::core
