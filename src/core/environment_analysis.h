// Cluster <-> indoor-environment correlation (Sec. 5.2): the contingency
// table behind the Sankey diagram (Fig. 6), the per-cluster environment
// composition (Fig. 7) and the per-environment cluster distribution (Fig. 8),
// plus the Paris-share statistics the paper quotes (e.g. ">92% of clusters
// 0 and 4 are in Paris").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/scenario.h"
#include "util/ascii.h"

namespace icn::core {

/// Cluster/environment cross-statistics.
class EnvironmentCorrelation {
 public:
  /// Builds the contingency from the scenario's indoor antennas and the
  /// given cluster labels (one per indoor antenna, values in [0, k)).
  EnvironmentCorrelation(const Scenario& scenario, std::span<const int> labels,
                         std::size_t k);

  /// Antennas of environment e inside cluster c.
  [[nodiscard]] std::size_t count(std::size_t cluster,
                                  net::Environment env) const;

  /// Cluster size (all environments).
  [[nodiscard]] std::size_t cluster_size(std::size_t cluster) const;

  /// Environment population (all clusters) — the Table-1 N_env.
  [[nodiscard]] std::size_t environment_size(net::Environment env) const;

  /// Fig. 7: fraction of cluster c coming from environment e.
  [[nodiscard]] double share_of_cluster(std::size_t cluster,
                                        net::Environment env) const;

  /// Fig. 8: fraction of environment e landing in cluster c.
  [[nodiscard]] double share_of_environment(net::Environment env,
                                            std::size_t cluster) const;

  /// Fraction of cluster c's antennas located in Paris (and suburbs).
  [[nodiscard]] double paris_share(std::size_t cluster) const;

  /// Fig. 6: cluster -> environment Sankey flows (weights = antenna counts).
  [[nodiscard]] std::vector<icn::util::SankeyFlow> sankey_flows() const;

 private:
  std::size_t k_ = 0;
  /// counts_[cluster][env]
  std::vector<std::vector<std::size_t>> counts_;
  std::vector<std::size_t> cluster_sizes_;
  std::vector<std::size_t> paris_counts_;
};

}  // namespace icn::core
