// Per-antenna service-demand model: draws, for every indoor antenna, a
// behavioural archetype (conditioned on environment and city), a two-month
// total traffic volume (heavy-tailed, environment-dependent), and a noisy
// per-service share vector around the archetype's expected mix.
//
// The resulting N x M matrix is the synthetic stand-in for the paper's
// aggregated measurement matrix T (Sec. 4.1): per-service downlink+uplink
// megabytes per antenna over 21 Nov 2022 -> 24 Jan 2023.
//
// Outdoor macro antennas get a separate, deliberately homogeneous
// "general-purpose" mix (Sec. 5.3's premise), so the indoor diversity is a
// property of the indoor population, not of the generator plumbing.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "net/topology.h"
#include "traffic/archetypes.h"
#include "traffic/services.h"

namespace icn::traffic {

/// Generation parameters of the demand model.
struct DemandParams {
  std::uint64_t seed = 99;
  /// Dirichlet concentration of per-antenna share noise around the archetype
  /// mix; higher = antennas of an archetype look more alike.
  double concentration = 2200.0;
};

/// Generated demand profile of one indoor antenna.
struct AntennaProfile {
  int archetype = 0;        ///< Ground-truth behavioural archetype (0..8).
  double total_mb = 0.0;    ///< Two-month total traffic (MB, all services).
  std::vector<double> shares;  ///< Per-service traffic shares (sum = 1).
};

/// Demand generator for a topology.
class DemandModel {
 public:
  /// Draws all indoor profiles and outdoor mixes deterministically from
  /// params.seed. References must outlive the model.
  DemandModel(const net::Topology& topology, const ArchetypeModel& archetypes,
              const DemandParams& params);

  /// Indoor antenna profiles, aligned with topology.indoor().
  [[nodiscard]] const std::vector<AntennaProfile>& profiles() const {
    return profiles_;
  }

  /// Ground-truth archetype per indoor antenna.
  [[nodiscard]] const std::vector<int>& archetype_labels() const {
    return labels_;
  }

  /// The T matrix (Sec. 4.1): N x M two-month service totals in MB.
  [[nodiscard]] const ml::Matrix& traffic_matrix() const { return traffic_; }

  /// Outdoor counterpart: one row per outdoor antenna of the topology.
  [[nodiscard]] const ml::Matrix& outdoor_traffic_matrix() const {
    return outdoor_traffic_;
  }

  [[nodiscard]] const net::Topology& topology() const { return *topology_; }
  [[nodiscard]] const ArchetypeModel& archetypes() const {
    return *archetypes_;
  }

  /// Mean two-month total volume (MB) for an environment; exposed for tests.
  [[nodiscard]] static double mean_total_mb(net::Environment e);

 private:
  const net::Topology* topology_;
  const ArchetypeModel* archetypes_;
  std::vector<AntennaProfile> profiles_;
  std::vector<int> labels_;
  ml::Matrix traffic_;
  ml::Matrix outdoor_traffic_;
};

}  // namespace icn::traffic
