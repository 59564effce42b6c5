// Dataset export (the paper's reproducibility deliverable: "we will make
// publicly available the code and processed service consumption data").
// Writes the processed per-antenna RSCA features, cluster labels and antenna
// metadata as CSV.
#pragma once

#include <iosfwd>
#include <span>

#include "core/scenario.h"
#include "ml/matrix.h"

namespace icn::core {

/// Writes one row per indoor antenna: id, name, environment, city, site,
/// cluster label, archetype, total MB, then one RSCA column per service.
/// Requires rsca rows == indoor antennas == labels size.
void export_rsca_csv(std::ostream& out, const Scenario& scenario,
                     const ml::Matrix& rsca, std::span<const int> labels);

/// Writes the raw two-month T matrix (MB): antenna id + one column per
/// service.
void export_traffic_csv(std::ostream& out, const Scenario& scenario);

}  // namespace icn::core
