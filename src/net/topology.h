// Synthetic nationwide radio-access topology.
//
// Reproduces the antenna population of the paper's dataset: 4,762 indoor
// antennas distributed over the 11 environment types exactly per Table 1,
// grouped into >1,000 sites, placed in Paris / Lille / Lyon / Rennes /
// Toulouse / elsewhere with per-environment city mixes consistent with
// Sec. 5.2.2 (e.g. ~75% of metro antennas in the Paris network), plus
// ~22,000 outdoor macro antennas within 1 km of the ICN sites (Sec. 5.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/city.h"
#include "net/environment.h"

namespace icn::net {

/// Radio access technology of an antenna. The paper's operator runs a 5G
/// non-standalone deployment where "the vast majority of those antennas are
/// 4G, as apparently 5G is scarcely used for ICN at this stage of roll-out"
/// (Sec. 3); both share the 4G EPC, which is why one probe vantage covers
/// both.
enum class RadioTech : std::uint8_t {
  kLte = 0,  ///< 4G eNodeB.
  kNr = 1,   ///< 5G NSA gNodeB (anchored on the 4G core).
};

/// One cellular antenna (a BTS sector carrier in the paper's terminology).
struct Antenna {
  std::uint32_t id = 0;       ///< Dense id; indoor antennas come first.
  std::string name;           ///< MNO-style name embedding an env keyword.
  Environment environment = Environment::kMetro;  ///< Indoor antennas only.
  City city = City::kOther;
  std::uint32_t site_id = 0;  ///< Owning site (outdoor: nearest ICN site).
  GeoPoint location;
  bool indoor = true;
  RadioTech tech = RadioTech::kLte;
};

/// One deployment location (metro station, office building, stadium, ...).
struct Site {
  std::uint32_t id = 0;
  std::string name;
  Environment environment = Environment::kMetro;
  City city = City::kOther;
  GeoPoint location;
  std::vector<std::uint32_t> antenna_ids;  ///< Indoor antennas of this site.
};

/// Topology generation parameters.
struct TopologyParams {
  std::uint64_t seed = 1234;
  /// Scales the Table-1 antenna counts (1.0 = the paper's 4,762 indoor
  /// antennas). Each environment keeps at least one antenna.
  double scale = 1.0;
  /// Mean number of outdoor macro antennas generated within 1 km of each
  /// indoor antenna's site; the paper observes ~22,000 outdoor antennas for
  /// 4,762 indoor ones (ratio ~4.6).
  double outdoor_ratio = 4.62;
};

/// The generated nationwide topology.
class Topology {
 public:
  /// Deterministically generates a topology from the parameters.
  [[nodiscard]] static Topology generate(const TopologyParams& params);

  [[nodiscard]] const std::vector<Antenna>& indoor() const { return indoor_; }
  [[nodiscard]] const std::vector<Antenna>& outdoor() const {
    return outdoor_;
  }
  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }

  /// Number of indoor antennas in the given environment.
  [[nodiscard]] std::size_t environment_count(Environment e) const;

 private:
  std::vector<Antenna> indoor_;
  std::vector<Antenna> outdoor_;
  std::vector<Site> sites_;
};

}  // namespace icn::net
