#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace icn::util {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproxHalf) {
  Rng rng(7);
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformRangeRejectsInverted) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), PreconditionError);
}

TEST(RngTest, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(13);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(RngTest, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(17);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.lognormal(1.0, 0.5);
  // Median of lognormal is exp(mu).
  EXPECT_NEAR(median(xs), std::exp(1.0), 0.05);
  EXPECT_GT(min_value(xs), 0.0);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  Rng rng(29);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = static_cast<double>(rng.poisson(lambda));
  EXPECT_NEAR(mean(xs), lambda, std::max(0.05, lambda * 0.05));
  EXPECT_NEAR(variance(xs), lambda, std::max(0.2, lambda * 0.1));
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.1, 1.0, 5.0, 50.0, 500.0));

class GammaMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GammaMomentsTest, MeanAndVarianceMatch) {
  const auto [shape, scale] = GetParam();
  Rng rng(31);
  std::vector<double> xs(40000);
  for (auto& x : xs) x = rng.gamma(shape, scale);
  EXPECT_NEAR(mean(xs), shape * scale, shape * scale * 0.05);
  EXPECT_NEAR(variance(xs), shape * scale * scale,
              shape * scale * scale * 0.15);
  EXPECT_GT(min_value(xs), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesBelowAndAboveOne, GammaMomentsTest,
    ::testing::Values(std::pair{0.5, 1.0}, std::pair{1.0, 2.0},
                      std::pair{4.0, 0.5}, std::pair{25.0, 0.04}));

TEST(RngTest, GammaRejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(rng.gamma(0.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.gamma(1.0, 0.0), PreconditionError);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(37);
  const std::vector<double> alphas = {1.0, 2.0, 3.0, 0.5};
  for (int i = 0; i < 100; ++i) {
    const auto draw = rng.dirichlet(alphas);
    ASSERT_EQ(draw.size(), alphas.size());
    double total = 0.0;
    for (const double v : draw) {
      EXPECT_GT(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(RngTest, DirichletMeanMatchesAlphaRatios) {
  Rng rng(37);
  const std::vector<double> alphas = {2.0, 6.0};
  double first = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) first += rng.dirichlet(alphas)[0];
  EXPECT_NEAR(first / kN, 0.25, 0.01);
}

TEST(RngTest, DirichletRejectsEmptyAndNonPositive) {
  Rng rng(1);
  EXPECT_THROW(rng.dirichlet(std::vector<double>{}), PreconditionError);
  EXPECT_THROW(rng.dirichlet(std::vector<double>{1.0, 0.0}),
               PreconditionError);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(41);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.01);
}

TEST(RngTest, CategoricalRejectsDegenerateWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), PreconditionError);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}),
               PreconditionError);
  EXPECT_THROW(rng.categorical(std::vector<double>{-1.0, 2.0}),
               PreconditionError);
}

TEST(DeriveSeedTest, Deterministic) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  EXPECT_EQ(derive_seed(5, 7), derive_seed(5, 7));
}

TEST(DeriveSeedTest, OrderSensitive) {
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(0, 1), derive_seed(1, 0));
}

TEST(DeriveSeedTest, ChainsAreIndependent) {
  // Substreams derived with different tags should not collide.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 50; ++a) {
    for (std::uint64_t b = 0; b < 50; ++b) {
      seeds.insert(derive_seed(123, a, b));
    }
  }
  EXPECT_EQ(seeds.size(), 2500u);
}

TEST(DeriveSeedTest, FourArgOverloadDistinct) {
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 5));
  EXPECT_EQ(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 4));
}

}  // namespace
}  // namespace icn::util
