// Scenario: one-call construction of the full synthetic study — catalogue,
// archetypes, topology, demand, temporal model — with stable ownership.
// This is the workbench's stand-in for "load the operator dataset".
#pragma once

#include <cstdint>
#include <memory>

#include "net/topology.h"
#include "traffic/archetypes.h"
#include "traffic/demand.h"
#include "traffic/services.h"
#include "traffic/temporal.h"

namespace icn::core {

/// Scenario construction parameters. Sub-seeds are derived from `seed`
/// unless explicitly overridden after construction.
struct ScenarioParams {
  std::uint64_t seed = 2023;
  /// Fraction of the paper's population (1.0 = 4,762 indoor antennas).
  double scale = 1.0;
  /// Outdoor macro antennas per indoor antenna (paper: ~22k/4,762 = 4.62).
  double outdoor_ratio = 4.62;
  /// Temporal noise: gamma shape (0 = noise-free hourly curves).
  double noise_shape = 25.0;
};

/// Owns the fully built synthetic study.
class Scenario {
 public:
  /// Builds everything deterministically from the parameters.
  [[nodiscard]] static Scenario build(const ScenarioParams& params);

  [[nodiscard]] const ScenarioParams& params() const { return params_; }
  [[nodiscard]] const traffic::ServiceCatalog& catalog() const {
    return *catalog_;
  }
  [[nodiscard]] const traffic::ArchetypeModel& archetypes() const {
    return *archetypes_;
  }
  [[nodiscard]] const net::Topology& topology() const { return *topology_; }
  [[nodiscard]] const traffic::DemandModel& demand() const { return *demand_; }
  [[nodiscard]] const traffic::TemporalModel& temporal() const {
    return *temporal_;
  }

  /// Number of indoor antennas (N) and services (M).
  [[nodiscard]] std::size_t num_antennas() const {
    return topology_->indoor().size();
  }
  [[nodiscard]] std::size_t num_services() const { return catalog_->size(); }

 private:
  ScenarioParams params_;
  std::unique_ptr<traffic::ServiceCatalog> catalog_;
  std::unique_ptr<traffic::ArchetypeModel> archetypes_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<traffic::DemandModel> demand_;
  std::unique_ptr<traffic::TemporalModel> temporal_;
};

}  // namespace icn::core
