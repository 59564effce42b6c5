#include "traffic/demand.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/stats.h"

namespace icn::traffic {
namespace {

class DemandModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::TopologyParams topo_params;
    topo_params.seed = 11;
    topo_params.scale = 0.08;
    topo_params.outdoor_ratio = 1.0;
    topology_ = net::Topology::generate(topo_params);
  }

  DemandModel make(DemandParams params = {}) {
    return DemandModel(topology_, archetypes_, params);
  }

  ServiceCatalog catalog_;
  ArchetypeModel archetypes_{catalog_};
  net::Topology topology_;
};

TEST_F(DemandModelTest, ShapesMatchTopology) {
  const DemandModel demand = make();
  EXPECT_EQ(demand.profiles().size(), topology_.indoor().size());
  EXPECT_EQ(demand.traffic_matrix().rows(), topology_.indoor().size());
  EXPECT_EQ(demand.traffic_matrix().cols(), catalog_.size());
  EXPECT_EQ(demand.outdoor_traffic_matrix().rows(),
            topology_.outdoor().size());
}

TEST_F(DemandModelTest, DeterministicForSeed) {
  const DemandModel a = make();
  const DemandModel b = make();
  EXPECT_EQ(a.archetype_labels(), b.archetype_labels());
  for (std::size_t i = 0; i < a.traffic_matrix().data().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.traffic_matrix().data()[i],
                     b.traffic_matrix().data()[i]);
  }
}

TEST_F(DemandModelTest, SeedChangesDraws) {
  DemandParams p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  const DemandModel a = make(p1);
  const DemandModel b = make(p2);
  bool differs = false;
  for (std::size_t i = 0; i < a.traffic_matrix().data().size(); ++i) {
    if (a.traffic_matrix().data()[i] != b.traffic_matrix().data()[i]) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST_F(DemandModelTest, SharesSumToOnePerAntenna) {
  const DemandModel demand = make();
  for (const auto& p : demand.profiles()) {
    double total = 0.0;
    for (const double s : p.shares) {
      EXPECT_GE(s, 0.0);
      total += s;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(DemandModelTest, MatrixRowsEqualTotalTimesShares) {
  const DemandModel demand = make();
  const auto& t = demand.traffic_matrix();
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& p = demand.profiles()[i];
    for (std::size_t j = 0; j < catalog_.size(); ++j) {
      EXPECT_NEAR(t(i, j), p.total_mb * p.shares[j],
                  1e-9 * std::max(1.0, p.total_mb));
    }
  }
}

TEST_F(DemandModelTest, ArchetypesRespectEnvironmentMix) {
  const DemandModel demand = make();
  const auto& indoor = topology_.indoor();
  for (std::size_t i = 0; i < indoor.size(); ++i) {
    const auto mix = ArchetypeModel::archetype_mix(indoor[i].environment,
                                                   indoor[i].city);
    const int a = demand.archetype_labels()[i];
    EXPECT_GT(mix[static_cast<std::size_t>(a)], 0.0)
        << indoor[i].name << " got archetype " << a;
  }
}

TEST_F(DemandModelTest, HigherConcentrationTightensShares) {
  DemandParams loose_params, tight_params;
  loose_params.concentration = 100.0;
  tight_params.concentration = 10000.0;
  const DemandModel loose = make(loose_params);
  const DemandModel tight = make(tight_params);
  // Measure mean absolute deviation of shares from the archetype expectation
  // over all antennas; the tight model must deviate less.
  auto deviation = [&](const DemandModel& d) {
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < d.profiles().size(); ++i) {
      const auto& p = d.profiles()[i];
      const auto expected = archetypes_.expected_shares(p.archetype);
      for (std::size_t j = 0; j < expected.size(); ++j) {
        acc += std::fabs(p.shares[j] - expected[j]);
        ++count;
      }
    }
    return acc / static_cast<double>(count);
  };
  EXPECT_LT(deviation(tight) * 3.0, deviation(loose));
}

TEST_F(DemandModelTest, VolumesScaleWithEnvironment) {
  // Airports carry far more traffic than hospitals on average.
  const DemandModel demand = make();
  std::vector<double> airport, hospital;
  const auto& indoor = topology_.indoor();
  for (std::size_t i = 0; i < indoor.size(); ++i) {
    if (indoor[i].environment == net::Environment::kAirport) {
      airport.push_back(demand.profiles()[i].total_mb);
    } else if (indoor[i].environment == net::Environment::kHospital) {
      hospital.push_back(demand.profiles()[i].total_mb);
    }
  }
  ASSERT_FALSE(airport.empty());
  ASSERT_FALSE(hospital.empty());
  EXPECT_GT(icn::util::median(airport), icn::util::median(hospital) * 3.0);
}

TEST_F(DemandModelTest, MeanTotalCoversAllEnvironments) {
  for (const net::Environment e : net::all_environments()) {
    EXPECT_GT(DemandModel::mean_total_mb(e), 0.0);
  }
}

TEST_F(DemandModelTest, OutdoorMixIsHomogeneous) {
  // Outdoor antennas serve broad populations: their share vectors must sit
  // much closer to each other than indoor archetype mixes do.
  const DemandModel demand = make();
  const auto& outdoor = demand.outdoor_traffic_matrix();
  ASSERT_GT(outdoor.rows(), 10u);
  // Mean pairwise L1 distance between normalized outdoor rows (sampled).
  auto normalized_row = [&](const ml::Matrix& m, std::size_t r) {
    std::vector<double> out(m.cols());
    double total = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) total += m(r, j);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] = m(r, j) / total;
    return out;
  };
  auto l1 = [](const std::vector<double>& a, const std::vector<double>& b) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.size(); ++j) {
      acc += std::fabs(a[j] - b[j]);
    }
    return acc;
  };
  double outdoor_dist = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(outdoor.rows(), 20);
       i += 2) {
    outdoor_dist += l1(normalized_row(outdoor, i),
                       normalized_row(outdoor, i + 1));
    ++pairs;
  }
  outdoor_dist /= pairs;
  // Compare against the distance between two very different archetypes.
  std::vector<double> a3(archetypes_.expected_shares(3).begin(),
                         archetypes_.expected_shares(3).end());
  std::vector<double> a0(archetypes_.expected_shares(0).begin(),
                         archetypes_.expected_shares(0).end());
  EXPECT_LT(outdoor_dist, 0.5 * l1(a3, a0));
}

TEST_F(DemandModelTest, RejectsBadParams) {
  DemandParams params;
  params.concentration = 0.0;
  EXPECT_THROW(make(params), icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::traffic
