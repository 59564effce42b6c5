#include "core/scenario.h"

#include "util/error.h"
#include "util/rng.h"

namespace icn::core {

Scenario Scenario::build(const ScenarioParams& params) {
  ICN_REQUIRE(params.scale > 0.0, "scenario scale");
  Scenario s;
  s.params_ = params;
  s.catalog_ = std::make_unique<traffic::ServiceCatalog>();
  s.archetypes_ = std::make_unique<traffic::ArchetypeModel>(*s.catalog_);

  net::TopologyParams topo;
  topo.seed = icn::util::derive_seed(params.seed, 1);
  topo.scale = params.scale;
  topo.outdoor_ratio = params.outdoor_ratio;
  s.topology_ =
      std::make_unique<net::Topology>(net::Topology::generate(topo));

  traffic::DemandParams demand;
  demand.seed = icn::util::derive_seed(params.seed, 2);
  s.demand_ = std::make_unique<traffic::DemandModel>(*s.topology_,
                                                     *s.archetypes_, demand);

  traffic::TemporalParams temporal;
  temporal.seed = icn::util::derive_seed(params.seed, 3);
  temporal.noise_shape = params.noise_shape;
  s.temporal_ =
      std::make_unique<traffic::TemporalModel>(*s.demand_, temporal);
  return s;
}

}  // namespace icn::core
