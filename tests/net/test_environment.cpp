#include "net/environment.h"

#include <gtest/gtest.h>

#include <set>

namespace icn::net {
namespace {

TEST(EnvironmentTest, ElevenCategories) {
  EXPECT_EQ(kNumEnvironments, 11u);
  EXPECT_EQ(all_environments().size(), 11u);
  std::set<Environment> distinct(all_environments().begin(),
                                 all_environments().end());
  EXPECT_EQ(distinct.size(), 11u);
}

TEST(EnvironmentTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const Environment e : all_environments()) {
    names.insert(environment_name(e));
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(EnvironmentTest, PaperCountsMatchTable1) {
  // Table 1 of the paper, N_env row.
  EXPECT_EQ(paper_antenna_count(Environment::kMetro), 1794u);
  EXPECT_EQ(paper_antenna_count(Environment::kTrain), 434u);
  EXPECT_EQ(paper_antenna_count(Environment::kAirport), 187u);
  EXPECT_EQ(paper_antenna_count(Environment::kWorkspace), 774u);
  EXPECT_EQ(paper_antenna_count(Environment::kCommercial), 469u);
  EXPECT_EQ(paper_antenna_count(Environment::kStadium), 451u);
  EXPECT_EQ(paper_antenna_count(Environment::kExpo), 230u);
  EXPECT_EQ(paper_antenna_count(Environment::kHotel), 28u);
  EXPECT_EQ(paper_antenna_count(Environment::kHospital), 53u);
  EXPECT_EQ(paper_antenna_count(Environment::kTunnel), 220u);
  EXPECT_EQ(paper_antenna_count(Environment::kPublicBuilding), 122u);
}

TEST(EnvironmentTest, TotalIs4762) {
  // "4,762 ICN antennas installed at more than 1,000 sites".
  std::size_t total = 0;
  for (const Environment e : all_environments()) {
    total += paper_antenna_count(e);
  }
  EXPECT_EQ(total, 4762u);
}

TEST(NameClassifierTest, RecognizesFrenchKeywords) {
  EXPECT_EQ(classify_environment_from_name("IDF_METRO_CHATELET_A1"),
            Environment::kMetro);
  EXPECT_EQ(classify_environment_from_name("PARIS_GARE_DU_NORD_A2"),
            Environment::kTrain);
  EXPECT_EQ(classify_environment_from_name("CDG_TERMINAL_2E_A7"),
            Environment::kAirport);
  EXPECT_EQ(classify_environment_from_name("LYON_BUREAU_AXA_A1"),
            Environment::kWorkspace);
  EXPECT_EQ(classify_environment_from_name("LILLE_CENTRE_CIAL_A3"),
            Environment::kCommercial);
  EXPECT_EQ(classify_environment_from_name("STADE_DE_FRANCE_A11"),
            Environment::kStadium);
  EXPECT_EQ(classify_environment_from_name("EUREXPO_LYON_HALL2"),
            Environment::kExpo);
  EXPECT_EQ(classify_environment_from_name("HOTEL_RIVOLI_A1"),
            Environment::kHotel);
  EXPECT_EQ(classify_environment_from_name("CHU_RENNES_A1"),
            Environment::kHospital);
  EXPECT_EQ(classify_environment_from_name("TUNNEL_FOURVIERE_A2"),
            Environment::kTunnel);
  EXPECT_EQ(classify_environment_from_name("UNIVERSITE_PARIS_SACLAY_A4"),
            Environment::kPublicBuilding);
}

TEST(NameClassifierTest, CaseInsensitive) {
  EXPECT_EQ(classify_environment_from_name("paris_metro_bastille"),
            Environment::kMetro);
  EXPECT_EQ(classify_environment_from_name("Stade de France"),
            Environment::kStadium);
}

TEST(NameClassifierTest, RerIsMetro) {
  EXPECT_EQ(classify_environment_from_name("RER_A_LA_DEFENSE"),
            Environment::kMetro);
}

TEST(NameClassifierTest, UnknownReturnsNullopt) {
  EXPECT_EQ(classify_environment_from_name("SOMETHING_ELSE"), std::nullopt);
  EXPECT_EQ(classify_environment_from_name(""), std::nullopt);
}

}  // namespace
}  // namespace icn::net
