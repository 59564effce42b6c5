// Failure-injection tests for the measurement path: unsignatured (ESNI /
// new-app) traffic, partial ULI registration, and the analysis pipeline's
// robustness to the resulting classification losses.
#include <gtest/gtest.h>

#include "core/clustering.h"
#include "core/rca.h"
#include "core/scenario.h"
#include "probe/aggregate.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "traffic/flows.h"
#include "util/error.h"
#include "util/stats.h"

namespace icn {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ScenarioParams params;
    params.seed = 404;
    params.scale = 0.008;
    params.outdoor_ratio = 0.0;
    scenario_ = std::make_unique<core::Scenario>(
        core::Scenario::build(params));
  }

  std::unique_ptr<core::Scenario> scenario_;
};

TEST_F(FailureInjectionTest, UnknownSniFractionIsDropped) {
  const double fraction = 0.3;
  const traffic::FlowGenerator generator(scenario_->temporal(), 9, 0x100000,
                                         fraction);
  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0),
                         static_cast<std::uint32_t>(
                             scenario_->num_antennas()));
  probe::DpiClassifier dpi(scenario_->catalog());
  probe::PassiveProbe probe(decoder, dpi);

  const auto flows = generator.flows_for_antenna(0, 0, 24 * 5);
  const auto sessions = probe.observe_all(flows);
  const double dropped_fraction =
      static_cast<double>(dpi.unmatched()) /
      static_cast<double>(flows.size());
  EXPECT_NEAR(dropped_fraction, fraction, 0.03);
  EXPECT_EQ(sessions.size() + dpi.unmatched(), flows.size());
  EXPECT_EQ(probe.unknown_location(), 0u);
}

TEST_F(FailureInjectionTest, ZeroFractionLosesNothing) {
  const traffic::FlowGenerator generator(scenario_->temporal(), 9);
  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0),
                         static_cast<std::uint32_t>(
                             scenario_->num_antennas()));
  probe::DpiClassifier dpi(scenario_->catalog());
  probe::PassiveProbe probe(decoder, dpi);
  const auto flows = generator.flows_for_antenna(1, 0, 48);
  const auto sessions = probe.observe_all(flows);
  EXPECT_EQ(sessions.size(), flows.size());
}

TEST_F(FailureInjectionTest, InvalidFractionRejected) {
  EXPECT_THROW(
      traffic::FlowGenerator(scenario_->temporal(), 9, 0x100000, 1.5),
      icn::util::PreconditionError);
  EXPECT_THROW(
      traffic::FlowGenerator(scenario_->temporal(), 9, 0x100000, -0.1),
      icn::util::PreconditionError);
}

TEST_F(FailureInjectionTest, PartialUliRegistrationDropsOnlyUnknownCells) {
  const traffic::FlowGenerator generator(scenario_->temporal(), 9);
  probe::UliDecoder decoder;
  // Register only the first half of the antennas.
  const auto half =
      static_cast<std::uint32_t>(scenario_->num_antennas() / 2);
  decoder.register_range(generator.ecgi_of(0), half);
  probe::DpiClassifier dpi(scenario_->catalog());
  probe::PassiveProbe probe(decoder, dpi);

  const auto known = generator.flows_for_antenna(0, 0, 24);
  const auto unknown = generator.flows_for_antenna(half, 0, 24);
  EXPECT_EQ(probe.observe_all(known).size(), known.size());
  EXPECT_TRUE(probe.observe_all(unknown).empty());
  EXPECT_EQ(probe.unknown_location(), unknown.size());
}

TEST_F(FailureInjectionTest, RcaSurvivesUniformClassificationLoss) {
  // A uniform 20% DPI loss scales every cell of the T matrix by roughly the
  // same factor, so the RSCA features (ratios of shares) barely move: the
  // measurement loss does not corrupt the paper's analysis.
  const std::int64_t hours = 24 * 5;
  const auto n = scenario_->num_antennas();
  const auto m = scenario_->num_services();

  auto measure = [&](double fraction) {
    const traffic::FlowGenerator generator(scenario_->temporal(), 9,
                                           0x100000, fraction);
    probe::UliDecoder decoder;
    decoder.register_range(generator.ecgi_of(0),
                           static_cast<std::uint32_t>(n));
    probe::DpiClassifier dpi(scenario_->catalog());
    probe::PassiveProbe probe(decoder, dpi);
    std::vector<std::uint32_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<std::uint32_t>(i);
    }
    probe::HourlyAggregator agg(ids, m, hours);
    for (std::size_t i = 0; i < n; ++i) {
      agg.add_all(probe.observe_all(generator.flows_for_antenna(
          i, 0, hours)));
    }
    return core::compute_rsca(agg.traffic_matrix());
  };

  const ml::Matrix clean = measure(0.0);
  const ml::Matrix lossy = measure(0.2);
  double max_abs_diff = 0.0, mean_abs_diff = 0.0;
  for (std::size_t i = 0; i < clean.data().size(); ++i) {
    const double diff = std::abs(clean.data()[i] - lossy.data()[i]);
    max_abs_diff = std::max(max_abs_diff, diff);
    mean_abs_diff += diff;
  }
  mean_abs_diff /= static_cast<double>(clean.data().size());
  EXPECT_LT(mean_abs_diff, 0.04);
  EXPECT_LT(max_abs_diff, 0.35);  // worst case on a tiny-volume service
}

}  // namespace
}  // namespace icn
