#include "net/topology.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "util/error.h"
#include "util/rng.h"

namespace icn::net {
namespace {

using icn::util::Rng;

/// Fraction of indoor antennas on 5G NR: scarce at the paper's stage of the
/// French roll-out. Outdoor macros carry more NR (early 5G coverage is
/// outside-in).
constexpr double kIndoorNrFraction = 0.04;
constexpr double kOutdoorNrFraction = 0.25;

/// Mean indoor antennas per site for each environment; chosen so the full
/// population groups into >1,000 sites, as the paper reports.
double antennas_per_site(Environment e) {
  switch (e) {
    case Environment::kMetro:
      return 6.0;  // ~300 stations
    case Environment::kTrain:
      return 4.0;
    case Environment::kAirport:
      return 12.0;  // few, large terminals
    case Environment::kWorkspace:
      return 2.0;
    case Environment::kCommercial:
      return 2.5;
    case Environment::kStadium:
      return 15.0;  // dense high-capacity venues
    case Environment::kExpo:
      return 8.0;
    case Environment::kHotel:
      return 1.5;
    case Environment::kHospital:
      return 2.0;
    case Environment::kTunnel:
      return 3.0;
    case Environment::kPublicBuilding:
      return 2.0;
  }
  return 2.0;
}

/// Per-environment city mix (weights over the 6 city classes, Table-1 /
/// Sec. 5.2.2 narrative: metros only exist in the five metro cities, the
/// commercial population is mostly outside Paris, offices concentrate in
/// Paris, etc.).
std::array<double, kNumCities> city_mix(Environment e) {
  switch (e) {
    case Environment::kMetro:
      return {0.75, 0.07, 0.08, 0.05, 0.05, 0.00};
    case Environment::kTrain:
      return {0.35, 0.08, 0.08, 0.08, 0.08, 0.33};
    case Environment::kAirport:
      return {0.55, 0.04, 0.08, 0.03, 0.08, 0.22};
    case Environment::kWorkspace:
      return {0.70, 0.04, 0.04, 0.04, 0.04, 0.14};
    case Environment::kCommercial:
      return {0.08, 0.06, 0.06, 0.06, 0.06, 0.68};
    case Environment::kStadium:
      return {0.40, 0.08, 0.08, 0.08, 0.08, 0.28};
    case Environment::kExpo:
      return {0.55, 0.05, 0.15, 0.05, 0.05, 0.15};
    case Environment::kHotel:
      return {0.40, 0.05, 0.05, 0.05, 0.05, 0.40};
    case Environment::kHospital:
      return {0.25, 0.05, 0.05, 0.05, 0.05, 0.55};
    case Environment::kTunnel:
      return {0.15, 0.05, 0.05, 0.05, 0.05, 0.65};
    case Environment::kPublicBuilding:
      return {0.30, 0.05, 0.05, 0.05, 0.10, 0.45};
  }
  return {0.2, 0.1, 0.1, 0.1, 0.1, 0.4};
}

/// Name token recognized by classify_environment_from_name.
const char* env_token(Environment e) {
  switch (e) {
    case Environment::kMetro:
      return "METRO";
    case Environment::kTrain:
      return "GARE";
    case Environment::kAirport:
      return "TERMINAL";
    case Environment::kWorkspace:
      return "BUREAU";
    case Environment::kCommercial:
      return "CENTRE_CIAL";
    case Environment::kStadium:
      return "STADE";
    case Environment::kExpo:
      return "EXPO";
    case Environment::kHotel:
      return "HOTEL";
    case Environment::kHospital:
      return "HOPITAL";
    case Environment::kTunnel:
      return "TUNNEL";
    case Environment::kPublicBuilding:
      return "UNIVERSITE";
  }
  return "SITE";
}

/// Spatial jitter (degrees) of site placement around the city centre.
double city_sigma_deg(City c) {
  return c == City::kOther ? 1.8 : 0.05;
}

GeoPoint jitter(const GeoPoint& center, double sigma_deg, Rng& rng) {
  return GeoPoint{center.lat_deg + rng.normal(0.0, sigma_deg),
                  center.lon_deg + rng.normal(0.0, sigma_deg)};
}

std::string upper_city(City c) {
  std::string s = city_name(c);
  for (auto& ch : s) ch = static_cast<char>(std::toupper(ch));
  return s;
}

}  // namespace

Topology Topology::generate(const TopologyParams& params) {
  ICN_REQUIRE(params.scale > 0.0, "topology scale > 0");
  ICN_REQUIRE(params.outdoor_ratio >= 0.0, "topology outdoor ratio");
  Topology topo;
  Rng rng(icn::util::derive_seed(params.seed, 0x7069'70CFULL));
  // Radio-technology draws use their own substream so enabling/disabling NR
  // does not perturb the spatial randomization.
  Rng tech_rng(icn::util::derive_seed(params.seed, 0x7EC4'0001ULL));

  std::uint32_t antenna_id = 0;
  std::uint32_t site_id = 0;
  char buf[96];

  for (const Environment env : all_environments()) {
    const auto target = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               params.scale *
               static_cast<double>(paper_antenna_count(env)))));
    const auto mix = city_mix(env);
    std::size_t produced = 0;
    while (produced < target) {
      const auto city = static_cast<City>(rng.categorical(mix));
      // Site size: 1 + Poisson(mean-1), clipped to remaining antennas.
      const double mean = antennas_per_site(env);
      std::size_t site_size =
          1 + static_cast<std::size_t>(rng.poisson(std::max(0.0, mean - 1.0)));
      site_size = std::min(site_size, target - produced);

      Site site;
      site.id = site_id;
      site.environment = env;
      site.city = city;
      site.location = jitter(city_center(city), city_sigma_deg(city), rng);
      std::snprintf(buf, sizeof(buf), "%s_%s_S%04u", upper_city(city).c_str(),
                    env_token(env), site_id);
      site.name = buf;

      for (std::size_t a = 0; a < site_size; ++a) {
        Antenna ant;
        ant.id = antenna_id;
        ant.environment = env;
        ant.city = city;
        ant.site_id = site_id;
        ant.indoor = true;
        ant.tech = tech_rng.bernoulli(kIndoorNrFraction)
                       ? RadioTech::kNr
                       : RadioTech::kLte;
        // Antennas sit within ~100 m of the site reference point.
        ant.location = jitter(site.location, 0.001, rng);
        std::snprintf(buf, sizeof(buf), "%s_A%u", site.name.c_str(),
                      static_cast<unsigned>(a + 1));
        ant.name = buf;
        site.antenna_ids.push_back(antenna_id);
        topo.indoor_.push_back(std::move(ant));
        ++antenna_id;
        ++produced;
      }
      topo.sites_.push_back(std::move(site));
      ++site_id;
    }
  }

  // Outdoor macro antennas near the ICN sites (Sec. 5.3: ~22k within 1 km).
  std::uint32_t outdoor_id = antenna_id;
  for (const Site& site : topo.sites_) {
    const double expected =
        params.outdoor_ratio * static_cast<double>(site.antenna_ids.size());
    const auto n = static_cast<std::size_t>(rng.poisson(expected));
    for (std::size_t i = 0; i < n; ++i) {
      Antenna ant;
      ant.id = outdoor_id;
      ant.environment = site.environment;  // nearest-ICN context only
      ant.city = site.city;
      ant.site_id = site.id;
      ant.indoor = false;
      ant.tech = tech_rng.bernoulli(kOutdoorNrFraction)
                     ? RadioTech::kNr
                     : RadioTech::kLte;
      // Within ~1 km: 0.009 degrees of latitude ~ 1 km.
      ant.location = jitter(site.location, 0.004, rng);
      std::snprintf(buf, sizeof(buf), "%s_MACRO_O%u", upper_city(site.city).c_str(),
                    static_cast<unsigned>(outdoor_id));
      ant.name = buf;
      topo.outdoor_.push_back(std::move(ant));
      ++outdoor_id;
    }
  }
  return topo;
}

std::size_t Topology::environment_count(Environment e) const {
  std::size_t n = 0;
  for (const auto& a : indoor_) {
    if (a.environment == e) ++n;
  }
  return n;
}

}  // namespace icn::net
