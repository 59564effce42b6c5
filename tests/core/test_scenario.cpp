#include "core/scenario.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace icn::core {
namespace {

ScenarioParams small_params(std::uint64_t seed = 1) {
  ScenarioParams p;
  p.seed = seed;
  p.scale = 0.03;
  p.outdoor_ratio = 0.5;
  return p;
}

TEST(ScenarioTest, BuildWiresEverythingTogether) {
  const Scenario s = Scenario::build(small_params());
  EXPECT_EQ(s.num_services(), 73u);
  EXPECT_GT(s.num_antennas(), 100u);
  EXPECT_EQ(s.demand().traffic_matrix().rows(), s.num_antennas());
  EXPECT_EQ(s.demand().traffic_matrix().cols(), s.num_services());
  EXPECT_EQ(s.temporal().period().num_days(), 65);
  EXPECT_EQ(&s.demand().topology(), &s.topology());
  EXPECT_EQ(&s.demand().archetypes().catalog(), &s.catalog());
  EXPECT_EQ(&s.temporal().demand(), &s.demand());
}

TEST(ScenarioTest, DeterministicAcrossBuilds) {
  const Scenario a = Scenario::build(small_params(42));
  const Scenario b = Scenario::build(small_params(42));
  EXPECT_EQ(a.num_antennas(), b.num_antennas());
  EXPECT_EQ(a.demand().archetype_labels(), b.demand().archetype_labels());
  for (std::size_t i = 0; i < a.demand().traffic_matrix().data().size();
       ++i) {
    EXPECT_DOUBLE_EQ(a.demand().traffic_matrix().data()[i],
                     b.demand().traffic_matrix().data()[i]);
  }
}

TEST(ScenarioTest, SeedsAreIndependentSubstreams) {
  const Scenario a = Scenario::build(small_params(1));
  const Scenario b = Scenario::build(small_params(2));
  bool differs = a.num_antennas() != b.num_antennas();
  if (!differs) {
    differs = a.demand().archetype_labels() != b.demand().archetype_labels();
  }
  EXPECT_TRUE(differs);
}

TEST(ScenarioTest, ScaleControlsPopulation) {
  ScenarioParams big = small_params();
  big.scale = 0.06;
  const Scenario a = Scenario::build(small_params());
  const Scenario b = Scenario::build(big);
  EXPECT_GT(b.num_antennas(), a.num_antennas() * 1.5);
}

TEST(ScenarioTest, RejectsNonPositiveScale) {
  ScenarioParams p = small_params();
  p.scale = 0.0;
  EXPECT_THROW(Scenario::build(p), icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::core
