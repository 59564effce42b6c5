#include "traffic/archetypes.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace icn::traffic {
namespace {

class ArchetypeModelTest : public ::testing::Test {
 protected:
  ServiceCatalog catalog_;
  ArchetypeModel model_{catalog_};

  double mult(int archetype, const char* service) const {
    return model_.multipliers(archetype)[*catalog_.index_of(service)];
  }
  double share(int archetype, const char* service) const {
    return model_.expected_shares(archetype)[*catalog_.index_of(service)];
  }
};

TEST_F(ArchetypeModelTest, NineArchetypesWithGroups) {
  EXPECT_EQ(kNumArchetypes, 9u);
  // Paper groups: orange {0,4,7}, green {5,6,8}, red {1,2,3}.
  EXPECT_EQ(archetype_group(0), ClusterGroup::kOrange);
  EXPECT_EQ(archetype_group(4), ClusterGroup::kOrange);
  EXPECT_EQ(archetype_group(7), ClusterGroup::kOrange);
  EXPECT_EQ(archetype_group(5), ClusterGroup::kGreen);
  EXPECT_EQ(archetype_group(6), ClusterGroup::kGreen);
  EXPECT_EQ(archetype_group(8), ClusterGroup::kGreen);
  EXPECT_EQ(archetype_group(1), ClusterGroup::kRed);
  EXPECT_EQ(archetype_group(2), ClusterGroup::kRed);
  EXPECT_EQ(archetype_group(3), ClusterGroup::kRed);
}

TEST_F(ArchetypeModelTest, GroupNames) {
  EXPECT_STREQ(group_name(ClusterGroup::kOrange), "orange");
  EXPECT_STREQ(group_name(ClusterGroup::kGreen), "green");
  EXPECT_STREQ(group_name(ClusterGroup::kRed), "red");
}

TEST_F(ArchetypeModelTest, InfoValidatesId) {
  EXPECT_THROW(archetype_info(-1), icn::util::PreconditionError);
  EXPECT_THROW(archetype_info(9), icn::util::PreconditionError);
  EXPECT_EQ(archetype_info(3).id, 3);
}

TEST_F(ArchetypeModelTest, ExpectedSharesAreDistributions) {
  for (int a = 0; a < 9; ++a) {
    double total = 0.0;
    for (const double s : model_.expected_shares(a)) {
      EXPECT_GT(s, 0.0);
      total += s;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "archetype " << a;
  }
}

TEST_F(ArchetypeModelTest, OrangeGroupOverUsesMusic) {
  // Sec. 5.1.2: "antennas of the orange group share in common that they
  // over-utilize applications related to music".
  for (const int a : {0, 4, 7}) {
    EXPECT_GT(mult(a, "Spotify"), 2.0) << "archetype " << a;
    EXPECT_GT(mult(a, "Deezer"), 2.0) << "archetype " << a;
  }
}

TEST_F(ArchetypeModelTest, Cluster7UnderUsesNavigationHelpers) {
  // "cluster 7 ... characterized by under-utilization of these
  // [navigation] applications" relative to 0 and 4.
  EXPECT_LT(mult(7, "Mappy"), 0.6);
  EXPECT_LT(mult(7, "Transportation Websites"), 0.6);
  EXPECT_GT(mult(0, "Mappy"), 2.0);
  EXPECT_GT(mult(4, "Transportation Websites"), 2.0);
}

TEST_F(ArchetypeModelTest, Cluster4LacksEntertainment) {
  // "unlike cluster 0, the utilization of entertainment services is scarce
  // in cluster 4, e.g. Yahoo and entertainment ... websites".
  EXPECT_LT(mult(4, "Yahoo"), 0.5);
  EXPECT_LT(mult(4, "Entertainment Websites"), 0.5);
  EXPECT_GT(mult(0, "Yahoo"), 1.5);
  EXPECT_GT(mult(0, "Entertainment Websites"), 1.5);
}

TEST_F(ArchetypeModelTest, GreenClustersShareSocialSportsSignature) {
  // Clusters 6 and 8 over-use Snapchat, Twitter and sports websites.
  for (const int a : {6, 8}) {
    EXPECT_GT(mult(a, "Snapchat"), 2.0) << a;
    EXPECT_GT(mult(a, "Twitter"), 2.0) << a;
    EXPECT_GT(mult(a, "Sports Websites"), 2.0) << a;
  }
}

TEST_F(ArchetypeModelTest, Cluster8MoreDiverseThanCluster6) {
  // "services such as Giphy, WhatsApp, and streaming such as Canal+ are
  // absent in cluster 6" but present in 8.
  EXPECT_GT(mult(8, "Giphy"), 2.0);
  EXPECT_LT(mult(6, "Giphy"), 0.6);
  EXPECT_GT(mult(8, "WhatsApp"), 1.5);
  EXPECT_LT(mult(6, "WhatsApp"), 1.0);
  EXPECT_GT(mult(8, "Canal+"), 1.3);
  EXPECT_LT(mult(6, "Canal+"), 0.5);
}

TEST_F(ArchetypeModelTest, Cluster5FlattensTheMix) {
  // Archetype 5 pushes every service towards an equal share: its expected
  // share vector must be much flatter than the raw popularity.
  const auto& pop = catalog_.popularity_shares();
  double pop_max = 0.0, a5_max = 0.0;
  for (std::size_t j = 0; j < catalog_.size(); ++j) {
    pop_max = std::max(pop_max, pop[j]);
    a5_max = std::max(a5_max, model_.expected_shares(5)[j]);
  }
  EXPECT_LT(a5_max, pop_max * 0.55);
}

TEST_F(ArchetypeModelTest, RedGroupSignatures) {
  // Cluster 1: streaming + Waze + mail; cluster 2: Play Store + shopping;
  // cluster 3: Teams, LinkedIn, mail.
  EXPECT_GT(mult(1, "Netflix"), 1.5);
  EXPECT_GT(mult(1, "Waze"), 2.0);
  EXPECT_GT(mult(2, "Google Play Store"), 2.0);
  EXPECT_GT(mult(2, "Shopping Websites"), 2.0);
  EXPECT_GT(mult(3, "Microsoft Teams"), 3.0);
  EXPECT_GT(mult(3, "LinkedIn"), 3.0);
  EXPECT_GT(mult(3, "Gmail"), 2.0);
}

TEST_F(ArchetypeModelTest, RedGroupUnderUsesCommuterServices) {
  // "clusters 1, 2, and 3 demonstrate minor utilization of music and
  // navigation-related applications".
  for (const int a : {1, 2, 3}) {
    EXPECT_LT(mult(a, "Spotify"), 0.8) << a;
    EXPECT_LT(mult(a, "Mappy"), 0.8) << a;
  }
}

TEST_F(ArchetypeModelTest, MultipliersValidateArchetypeId) {
  EXPECT_THROW(model_.multipliers(9), icn::util::PreconditionError);
  EXPECT_THROW(model_.expected_shares(-1), icn::util::PreconditionError);
}

// --- archetype_mix -------------------------------------------------------

TEST(ArchetypeMixTest, AllMixesAreDistributions) {
  for (const net::Environment e : net::all_environments()) {
    for (std::size_t ci = 0; ci < net::kNumCities; ++ci) {
      const auto c = static_cast<net::City>(ci);
      const auto mix = ArchetypeModel::archetype_mix(e, c);
      double total = 0.0;
      for (const double w : mix) {
        EXPECT_GE(w, 0.0);
        total += w;
      }
      EXPECT_NEAR(total, 1.0, 1e-9)
          << net::environment_name(e) << "/" << net::city_name(c);
    }
  }
}

TEST(ArchetypeMixTest, MetroAndTrainAreOrangeOnlyPlusLeakage) {
  // Fig. 7a: the orange group comprises solely metro and train stations;
  // conversely metros flow overwhelmingly into orange archetypes.
  const auto paris_metro = ArchetypeModel::archetype_mix(
      net::Environment::kMetro, net::City::kParis);
  EXPECT_GT(paris_metro[0] + paris_metro[4], 0.9);
  const auto lyon_metro = ArchetypeModel::archetype_mix(
      net::Environment::kMetro, net::City::kLyon);
  EXPECT_GT(lyon_metro[7], 0.9);
  EXPECT_DOUBLE_EQ(lyon_metro[0], 0.0);
}

TEST(ArchetypeMixTest, ProvincialMetroNeverInParisClusters) {
  const auto mix = ArchetypeModel::archetype_mix(net::Environment::kMetro,
                                                 net::City::kToulouse);
  EXPECT_DOUBLE_EQ(mix[0], 0.0);
  EXPECT_DOUBLE_EQ(mix[4], 0.0);
}

TEST(ArchetypeMixTest, WorkspacesFlowToCluster3) {
  // Fig. 8c: workplaces mostly in cluster 3 (>70% of cluster 3 is
  // workspaces), ~5% in cluster 5.
  const auto mix = ArchetypeModel::archetype_mix(
      net::Environment::kWorkspace, net::City::kParis);
  EXPECT_NEAR(mix[3], 0.70, 0.05);
  EXPECT_NEAR(mix[5], 0.06, 0.03);
}

TEST(ArchetypeMixTest, AirportsAndTunnelsAreGeneralUse) {
  // Fig. 8a: cluster 1 contains almost all airport and tunnel antennas.
  const auto airport = ArchetypeModel::archetype_mix(
      net::Environment::kAirport, net::City::kOther);
  EXPECT_GT(airport[1], 0.85);
  const auto tunnel = ArchetypeModel::archetype_mix(
      net::Environment::kTunnel, net::City::kOther);
  EXPECT_GT(tunnel[1], 0.85);
}

TEST(ArchetypeMixTest, HospitalsAndHotelsFlowToCluster2) {
  // Fig. 8b: cluster 2 hosts most hotels/public buildings and almost all
  // hospitals.
  const auto hospital = ArchetypeModel::archetype_mix(
      net::Environment::kHospital, net::City::kOther);
  EXPECT_GT(hospital[2], 0.85);
  const auto hotel = ArchetypeModel::archetype_mix(net::Environment::kHotel,
                                                   net::City::kParis);
  EXPECT_GT(hotel[2], 0.6);
}

TEST(ArchetypeMixTest, StadiumSplitDependsOnCity) {
  // Cluster 6 = provincial stadiums, cluster 8 mostly Paris arenas.
  const auto paris = ArchetypeModel::archetype_mix(
      net::Environment::kStadium, net::City::kParis);
  const auto lille = ArchetypeModel::archetype_mix(
      net::Environment::kStadium, net::City::kLille);
  EXPECT_GT(paris[8], 0.5);
  EXPECT_GT(lille[6], 0.5);
  EXPECT_GT(paris[5] + lille[5], 0.3);  // both feed the low-usage cluster
}

TEST(ArchetypeMixTest, ExpoCentersLeanWorkOriented) {
  // Fig. 8c: more than 50% of expo centres belong to cluster 3.
  const auto mix = ArchetypeModel::archetype_mix(net::Environment::kExpo,
                                                 net::City::kLyon);
  EXPECT_GT(mix[3], 0.5);
}

}  // namespace
}  // namespace icn::traffic
