#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>

#include "util/error.h"

namespace icn::net {
namespace {

Topology small_topology(std::uint64_t seed = 1) {
  TopologyParams params;
  params.seed = seed;
  params.scale = 0.1;
  return Topology::generate(params);
}

TEST(TopologyTest, FullScaleMatchesTable1) {
  TopologyParams params;
  params.scale = 1.0;
  params.outdoor_ratio = 4.62;
  const Topology topo = Topology::generate(params);
  EXPECT_EQ(topo.indoor().size(), 4762u);
  for (const Environment e : all_environments()) {
    EXPECT_EQ(topo.environment_count(e), paper_antenna_count(e))
        << environment_name(e);
  }
  // ">1,000 indoor locations" and "~22,000 outdoor antennas".
  EXPECT_GT(topo.sites().size(), 1000u);
  EXPECT_NEAR(static_cast<double>(topo.outdoor().size()), 22000.0, 2500.0);
}

TEST(TopologyTest, DeterministicForSeed) {
  const Topology a = small_topology(5);
  const Topology b = small_topology(5);
  ASSERT_EQ(a.indoor().size(), b.indoor().size());
  for (std::size_t i = 0; i < a.indoor().size(); ++i) {
    EXPECT_EQ(a.indoor()[i].name, b.indoor()[i].name);
    EXPECT_EQ(a.indoor()[i].city, b.indoor()[i].city);
    EXPECT_DOUBLE_EQ(a.indoor()[i].location.lat_deg,
                     b.indoor()[i].location.lat_deg);
  }
}

TEST(TopologyTest, SeedChangesLayout) {
  const Topology a = small_topology(1);
  const Topology b = small_topology(2);
  bool differs = a.indoor().size() != b.indoor().size();
  for (std::size_t i = 0; !differs && i < a.indoor().size(); ++i) {
    differs = a.indoor()[i].location.lat_deg !=
              b.indoor()[i].location.lat_deg;
  }
  EXPECT_TRUE(differs);
}

TEST(TopologyTest, IdsAreDenseAndUnique) {
  const Topology topo = small_topology();
  std::set<std::uint32_t> ids;
  for (const auto& a : topo.indoor()) ids.insert(a.id);
  EXPECT_EQ(ids.size(), topo.indoor().size());
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), topo.indoor().size() - 1);
  // Outdoor ids continue after indoor ids.
  for (const auto& a : topo.outdoor()) {
    EXPECT_GE(a.id, topo.indoor().size());
    EXPECT_FALSE(a.indoor);
  }
}

TEST(TopologyTest, EveryEnvironmentRepresentedAtAnyScale) {
  TopologyParams params;
  params.scale = 0.001;  // would floor to zero without the min-1 rule
  const Topology topo = Topology::generate(params);
  for (const Environment e : all_environments()) {
    EXPECT_GE(topo.environment_count(e), 1u) << environment_name(e);
  }
}

TEST(TopologyTest, NamesClassifyBackToEnvironment) {
  // The synthetic names must be recoverable by the Sec. 5.2.1 keyword
  // classifier — that's how the paper derived Table 1 in the first place.
  const Topology topo = small_topology();
  for (const auto& a : topo.indoor()) {
    const auto env = classify_environment_from_name(a.name);
    ASSERT_TRUE(env.has_value()) << a.name;
    EXPECT_EQ(*env, a.environment) << a.name;
  }
}

TEST(TopologyTest, SitesOwnTheirAntennas) {
  const Topology topo = small_topology();
  std::size_t covered = 0;
  for (const auto& site : topo.sites()) {
    for (const std::uint32_t id : site.antenna_ids) {
      ASSERT_LT(id, topo.indoor().size());
      EXPECT_EQ(topo.indoor()[id].site_id, site.id);
      EXPECT_EQ(topo.indoor()[id].environment, site.environment);
      EXPECT_EQ(topo.indoor()[id].city, site.city);
      ++covered;
    }
  }
  EXPECT_EQ(covered, topo.indoor().size());
}

TEST(TopologyTest, MetroOnlyInMetroCities) {
  const Topology topo = Topology::generate(TopologyParams{.seed = 3,
                                                          .scale = 0.5});
  for (const auto& a : topo.indoor()) {
    if (a.environment == Environment::kMetro) {
      EXPECT_TRUE(is_paris(a.city) || has_provincial_metro(a.city))
          << a.name;
    }
  }
}

TEST(TopologyTest, MetroIsMostlyParisian) {
  const Topology topo = Topology::generate(TopologyParams{.seed = 7,
                                                          .scale = 1.0});
  std::size_t paris = 0, total = 0;
  for (const auto& a : topo.indoor()) {
    if (a.environment != Environment::kMetro) continue;
    ++total;
    if (is_paris(a.city)) ++paris;
  }
  const double share = static_cast<double>(paris) /
                       static_cast<double>(total);
  EXPECT_GT(share, 0.68);
  EXPECT_LT(share, 0.82);
}

TEST(TopologyTest, OutdoorAntennasNearTheirSite) {
  const Topology topo = small_topology();
  for (const auto& a : topo.outdoor()) {
    ASSERT_LT(a.site_id, topo.sites().size());
    const auto& site = topo.sites()[a.site_id];
    // ~1 km radius (allow tail of the Gaussian placement).
    EXPECT_LT(distance_km(
                  GeoPoint{a.location.lat_deg, a.location.lon_deg},
                  GeoPoint{site.location.lat_deg, site.location.lon_deg}),
              3.0);
  }
}

TEST(TopologyTest, OutdoorRatioRespected) {
  TopologyParams params;
  params.scale = 0.5;
  params.outdoor_ratio = 2.0;
  const Topology topo = Topology::generate(params);
  const double ratio = static_cast<double>(topo.outdoor().size()) /
                       static_cast<double>(topo.indoor().size());
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

TEST(TopologyTest, ZeroOutdoorRatioMeansNoOutdoor) {
  TopologyParams params;
  params.scale = 0.05;
  params.outdoor_ratio = 0.0;
  const Topology topo = Topology::generate(params);
  EXPECT_TRUE(topo.outdoor().empty());
}

TEST(TopologyTest, RejectsBadParams) {
  TopologyParams params;
  params.scale = 0.0;
  EXPECT_THROW(Topology::generate(params), icn::util::PreconditionError);
  params.scale = 1.0;
  params.outdoor_ratio = -1.0;
  EXPECT_THROW(Topology::generate(params), icn::util::PreconditionError);
}

TEST(TopologyTest, RadioTechSplitMatchesNsaRollout) {
  // Sec. 3: 5G NSA with scarce indoor NR; early NR coverage is outside-in.
  TopologyParams params;
  params.scale = 1.0;
  params.outdoor_ratio = 2.0;
  const Topology topo = Topology::generate(params);
  auto nr_share = [](const std::vector<Antenna>& antennas) {
    std::size_t nr = 0;
    for (const Antenna& a : antennas) {
      if (a.tech == RadioTech::kNr) ++nr;
    }
    return static_cast<double>(nr) / static_cast<double>(antennas.size());
  };
  const double indoor_nr = nr_share(topo.indoor());
  const double outdoor_nr = nr_share(topo.outdoor());
  EXPECT_NEAR(indoor_nr, 0.04, 0.015);
  EXPECT_NEAR(outdoor_nr, 0.25, 0.03);
  EXPECT_GT(outdoor_nr, indoor_nr * 3.0);
}

}  // namespace
}  // namespace icn::net
