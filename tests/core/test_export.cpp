#include "core/export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/rca.h"
#include "util/csv.h"
#include "util/error.h"

namespace icn::core {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScenarioParams params;
    params.seed = 3;
    params.scale = 0.02;
    params.outdoor_ratio = 0.0;
    scenario_ = std::make_unique<Scenario>(Scenario::build(params));
    rsca_ = compute_rsca(scenario_->demand().traffic_matrix());
    labels_ = scenario_->demand().archetype_labels();
  }

  std::unique_ptr<Scenario> scenario_;
  ml::Matrix rsca_;
  std::vector<int> labels_;
};

TEST_F(ExportTest, RscaCsvHasHeaderAndAllRows) {
  std::ostringstream out;
  export_rsca_csv(out, *scenario_, rsca_, labels_);
  const auto rows = icn::util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), scenario_->num_antennas() + 1);
  // Header: 8 metadata columns + one per service.
  EXPECT_EQ(rows[0].size(), 8u + scenario_->num_services());
  EXPECT_EQ(rows[0][0], "antenna_id");
  EXPECT_EQ(rows[0][8], "rsca:YouTube");
}

TEST_F(ExportTest, RscaCsvValuesRoundTrip) {
  std::ostringstream out;
  export_rsca_csv(out, *scenario_, rsca_, labels_);
  const auto rows = icn::util::parse_csv(out.str());
  for (std::size_t i = 1; i <= 5; ++i) {
    const auto& row = rows[i];
    EXPECT_EQ(std::stoul(row[0]), i - 1);  // dense antenna ids
    EXPECT_EQ(std::stoi(row[6]), labels_[i - 1]);  // archetype column
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(std::stod(row[8 + j]), rsca_(i - 1, j), 1e-8);
    }
  }
}

TEST_F(ExportTest, RscaCsvMetadataMatchesTopology) {
  std::ostringstream out;
  export_rsca_csv(out, *scenario_, rsca_, labels_);
  const auto rows = icn::util::parse_csv(out.str());
  const auto& indoor = scenario_->topology().indoor();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][1], indoor[i - 1].name);
    EXPECT_EQ(rows[i][2],
              net::environment_name(indoor[i - 1].environment));
    EXPECT_EQ(rows[i][3], net::city_name(indoor[i - 1].city));
  }
}

TEST_F(ExportTest, TrafficCsvShape) {
  std::ostringstream out;
  export_traffic_csv(out, *scenario_);
  const auto rows = icn::util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), scenario_->num_antennas() + 1);
  EXPECT_EQ(rows[0].size(), 1u + scenario_->num_services());
  // Values match the T matrix.
  const auto& t = scenario_->demand().traffic_matrix();
  EXPECT_NEAR(std::stod(rows[1][1]), t(0, 0), 1e-6 * std::max(1.0, t(0, 0)));
}

TEST_F(ExportTest, ImportRoundTripsEverything) {
  std::ostringstream out;
  export_rsca_csv(out, *scenario_, rsca_, labels_);
  const auto rows = icn::util::parse_csv(out.str());

  ASSERT_EQ(rows.size(), scenario_->num_antennas() + 1);
  const std::size_t m = scenario_->num_services();
  ASSERT_EQ(rows[0].size(), 8u + m);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(rows[0][8 + j],
              "rsca:" + std::string(scenario_->catalog().at(j).name));
  }

  const auto& indoor = scenario_->topology().indoor();
  const auto& profiles = scenario_->demand().profiles();
  for (std::size_t i = 0; i < indoor.size(); ++i) {
    const auto& row = rows[i + 1];
    ASSERT_EQ(row.size(), 8u + m);
    EXPECT_EQ(std::stoul(row[0]), indoor[i].id);
    EXPECT_EQ(row[1], indoor[i].name);
    EXPECT_EQ(row[2], net::environment_name(indoor[i].environment));
    EXPECT_EQ(row[3], net::city_name(indoor[i].city));
    EXPECT_EQ(std::stoi(row[5]), labels_[i]);
    EXPECT_EQ(std::stoi(row[6]), profiles[i].archetype);
    EXPECT_NEAR(std::stod(row[7]), profiles[i].total_mb,
                1e-4 * profiles[i].total_mb);
  }
  for (std::size_t i = 0; i < rsca_.rows(); i += 7) {
    for (std::size_t j = 0; j < rsca_.cols(); ++j) {
      EXPECT_NEAR(std::stod(rows[i + 1][8 + j]), rsca_(i, j), 1e-8);
    }
  }
}

TEST_F(ExportTest, ShapeMismatchThrows) {
  std::ostringstream out;
  const std::vector<int> bad_labels = {1, 2};
  EXPECT_THROW(export_rsca_csv(out, *scenario_, rsca_, bad_labels),
               icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::core
