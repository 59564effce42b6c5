#include "traffic/demand.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace icn::traffic {
namespace {

using icn::util::Rng;

/// Stream tags for seed derivation (stable across versions).
constexpr std::uint64_t kIndoorStream = 0x1D00'0001ULL;
constexpr std::uint64_t kOutdoorStream = 0x0D00'0002ULL;

/// Log-normal sigma of the per-antenna total volume.
constexpr double kVolumeSigma = 0.9;

/// Dirichlet concentration of outdoor antennas' share noise. Lower than the
/// indoor DemandParams::concentration: outdoor BSs serve broad populations,
/// and their mixes already blend toward the global average.
constexpr double kOutdoorConcentration = 700.0;

/// Draws a share vector ~ Dirichlet(concentration * expected).
std::vector<double> noisy_shares(std::span<const double> expected,
                                 double concentration, Rng& rng) {
  std::vector<double> alphas(expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    // Floor keeps rarely-used services from degenerating to exact zero.
    alphas[j] = std::max(concentration * expected[j], 0.05);
  }
  return rng.dirichlet(alphas);
}

}  // namespace

double DemandModel::mean_total_mb(net::Environment e) {
  using net::Environment;
  switch (e) {
    case Environment::kMetro:
      return 5.0e4;
    case Environment::kTrain:
      return 8.0e4;
    case Environment::kAirport:
      return 1.2e5;
    case Environment::kWorkspace:
      return 1.5e4;
    case Environment::kCommercial:
      return 4.0e4;
    case Environment::kStadium:
      return 6.0e4;
    case Environment::kExpo:
      return 3.0e4;
    case Environment::kHotel:
      return 8.0e3;
    case Environment::kHospital:
      return 6.0e3;
    case Environment::kTunnel:
      return 2.0e4;
    case Environment::kPublicBuilding:
      return 1.0e4;
  }
  return 2.0e4;
}

DemandModel::DemandModel(const net::Topology& topology,
                         const ArchetypeModel& archetypes,
                         const DemandParams& params)
    : topology_(&topology), archetypes_(&archetypes) {
  ICN_REQUIRE(params.concentration > 0.0, "demand concentration");
  const auto& indoor = topology.indoor();
  const std::size_t n = indoor.size();
  const std::size_t m = archetypes.catalog().size();
  ICN_REQUIRE(n > 0, "topology has no indoor antennas");

  // Every antenna draws from its own seed stream keyed by its id, so the
  // rows can be generated on any number of threads (each iteration writes
  // only row i of the tensor and slot i of the profile/label vectors) and
  // the tensor is bit-identical to a serial fill.
  profiles_.resize(n);
  labels_.resize(n);
  traffic_ = ml::Matrix(n, m);
  icn::util::parallel_for(0, n, 16, [&](std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const net::Antenna& ant = indoor[i];
    Rng rng(icn::util::derive_seed(params.seed, kIndoorStream, ant.id));
    const auto mix =
        ArchetypeModel::archetype_mix(ant.environment, ant.city);
    const int archetype = static_cast<int>(rng.categorical(mix));

    AntennaProfile profile;
    profile.archetype = archetype;
    const double mu =
        std::log(mean_total_mb(ant.environment)) -
        0.5 * kVolumeSigma * kVolumeSigma;
    profile.total_mb = rng.lognormal(mu, kVolumeSigma);
    // Local specialities: one or two *niche* services are idiosyncratically
    // popular at this particular antenna (the venue's own app, a local
    // habit). Niche services have tiny global shares, so this produces the
    // heavy RCA over-utilization tail of Fig. 1 (the paper observes RCA up
    // to ~76) that the RSCA transform then bounds away — while leaving the
    // cluster-defining popular services untouched.
    std::vector<double> expected(
        archetypes.expected_shares(archetype).begin(),
        archetypes.expected_shares(archetype).end());
    const auto& popularity = archetypes.catalog().popularity_shares();
    const std::size_t num_spec = 1 + rng.poisson(0.6);
    for (std::size_t spec = 0; spec < num_spec; ++spec) {
      std::size_t j = rng.uniform_index(m);
      for (int tries = 0; popularity[j] > 0.01 && tries < 16; ++tries) {
        j = rng.uniform_index(m);
      }
      expected[j] *= rng.lognormal(1.2, 0.8);
    }
    {
      double total = 0.0;
      for (const double v : expected) total += v;
      for (double& v : expected) v /= total;
    }
    profile.shares = noisy_shares(expected, params.concentration, rng);
    for (std::size_t j = 0; j < m; ++j) {
      traffic_(i, j) = profile.total_mb * profile.shares[j];
    }
    labels_[i] = archetype;
    profiles_[i] = std::move(profile);
  }
  });

  // Outdoor antennas: general-purpose mix around the global popularity
  // shares, mildly tilted towards outdoor-typical services (vehicular
  // navigation, long-form streaming, mail) but far more homogeneous than
  // any indoor archetype.
  const auto& outdoor = topology.outdoor();
  const auto& catalog = archetypes.catalog();
  std::vector<double> outdoor_mix(catalog.popularity_shares());
  auto tilt = [&](std::string_view name, double factor) {
    const auto j = catalog.index_of(name);
    ICN_REQUIRE(j.has_value(), "outdoor tilt service");
    outdoor_mix[*j] *= factor;
  };
  tilt("Waze", 1.6);
  tilt("Google Maps", 1.3);
  tilt("Netflix", 1.15);
  tilt("YouTube", 1.1);
  tilt("Gmail", 1.15);
  tilt("Outlook", 1.1);
  {
    double total = 0.0;
    for (const double v : outdoor_mix) total += v;
    for (double& v : outdoor_mix) v /= total;
  }
  outdoor_traffic_ = ml::Matrix(outdoor.size(), m);
  icn::util::parallel_for(
      0, outdoor.size(), 32, [&](std::size_t lo, std::size_t hi) {
  std::vector<double> blended(m);
  for (std::size_t i = lo; i < hi; ++i) {
    Rng rng(icn::util::derive_seed(params.seed, kOutdoorStream,
                                   outdoor[i].id));
    const double mu = std::log(2.0e5) - 0.5 * kVolumeSigma * kVolumeSigma;
    const double total_mb = rng.lognormal(mu, kVolumeSigma);
    // "Outside-in" spillover: an outdoor macro within 1 km of an ICN site
    // serves some of the same population, so its mix leans slightly (weight
    // drawn around 0.28) towards the dominant archetype of that site.
    // Transit (orange) flavours do not spill over: commuter usage happens
    // underground, out of reach of the street-level macro.
    const auto mix = ArchetypeModel::archetype_mix(outdoor[i].environment,
                                                   outdoor[i].city);
    std::size_t dominant = 0;
    for (std::size_t a = 1; a < mix.size(); ++a) {
      if (mix[a] > mix[dominant]) dominant = a;
    }
    const auto flavour =
        archetypes.multipliers(static_cast<int>(dominant));
    const bool transit = archetype_group(static_cast<int>(dominant)) ==
                         ClusterGroup::kOrange;
    const double w =
        transit ? 0.0 : std::clamp(rng.normal(0.28, 0.14), 0.0, 0.6);
    double blended_total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      blended[j] = outdoor_mix[j] * ((1.0 - w) + w * flavour[j]);
      blended_total += blended[j];
    }
    for (std::size_t j = 0; j < m; ++j) blended[j] /= blended_total;
    const auto shares = noisy_shares(blended, kOutdoorConcentration, rng);
    for (std::size_t j = 0; j < m; ++j) {
      outdoor_traffic_(i, j) = total_mb * shares[j];
    }
  }
      });
}

}  // namespace icn::traffic
