#include "core/forecast.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace icn::core {
namespace {

TEST(SeasonalForecasterTest, RecoversExactPeriodicSignal) {
  // Three seasons of a pure 24h pattern: forecast equals the pattern.
  std::vector<double> series;
  for (int rep = 0; rep < 3; ++rep) {
    for (int h = 0; h < 24; ++h) {
      series.push_back(10.0 + std::sin(h / 24.0 * 2.0 * M_PI));
    }
  }
  SeasonalForecaster f;
  f.fit(series, 24);
  const auto pred = f.forecast(24);
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(pred[static_cast<std::size_t>(h)],
                10.0 + std::sin(h / 24.0 * 2.0 * M_PI), 1e-12);
  }
}

TEST(SeasonalForecasterTest, MedianRobustToOneOutlierSeason) {
  // Three seasons, one corrupted by a 100x spike: median ignores it.
  std::vector<double> series(3 * 24, 5.0);
  series[30] = 500.0;  // hour 6 of season 2
  SeasonalForecaster f;
  f.fit(series, 24);
  EXPECT_DOUBLE_EQ(f.forecast(24)[6], 5.0);
}

TEST(SeasonalForecasterTest, ForecastContinuesFromTrainingPhase) {
  // Training ends mid-season: the first forecast hour is the next slot.
  std::vector<double> series;
  for (std::size_t t = 0; t < 30; ++t) {
    series.push_back(static_cast<double>(t % 10));
  }
  SeasonalForecaster f;
  f.fit(series, 10);
  const auto pred = f.forecast(5);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_DOUBLE_EQ(pred[h], static_cast<double>((30 + h) % 10));
  }
}

TEST(SeasonalForecasterTest, PartialLastSeasonHandled) {
  // 2.5 seasons: slots in the covered half see 3 samples, others 2.
  std::vector<double> series(25, 1.0);
  SeasonalForecaster f;
  f.fit(series, 10);
  for (const double v : f.forecast(10)) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(SeasonalForecasterTest, Validation) {
  SeasonalForecaster f;
  EXPECT_THROW(f.forecast(5), icn::util::PreconditionError);
  std::vector<double> tiny(5, 1.0);
  EXPECT_THROW(f.fit(tiny, 10), icn::util::PreconditionError);
  EXPECT_THROW(f.fit(tiny, 0), icn::util::PreconditionError);
}

TEST(SmapeTest, PerfectForecastIsZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(smape(a, a), 0.0);
}

TEST(SmapeTest, WorstCaseIsTwo) {
  const std::vector<double> actual = {1.0, 5.0};
  const std::vector<double> predicted = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(smape(actual, predicted), 2.0);
}

TEST(SmapeTest, SymmetricInArguments) {
  const std::vector<double> a = {1.0, 4.0, 2.0};
  const std::vector<double> b = {2.0, 3.0, 2.5};
  EXPECT_DOUBLE_EQ(smape(a, b), smape(b, a));
}

TEST(SmapeTest, BothZeroHoursUncounted) {
  const std::vector<double> actual = {0.0, 2.0};
  const std::vector<double> predicted = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(smape(actual, predicted), 0.0);
}

TEST(SmapeTest, SizeValidation) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)smape(a, b), icn::util::PreconditionError);
  EXPECT_THROW((void)smape(std::vector<double>{}, std::vector<double>{}),
               icn::util::PreconditionError);
}

TEST(SeasonalForecasterTest, NoisyPeriodicSignalForecastBeatsMean) {
  // Weekly periodic signal + noise: the seasonal forecaster's sMAPE on a
  // held-out week beats a flat mean predictor.
  icn::util::Rng rng(5);
  std::vector<double> series;
  for (std::size_t t = 0; t < 168 * 5; ++t) {
    const double base =
        5.0 + 4.0 * std::sin(static_cast<double>(t % 168) / 168.0 * 2 * M_PI);
    series.push_back(base * rng.gamma(25.0, 1.0 / 25.0));
  }
  const std::size_t train = 168 * 4;
  SeasonalForecaster f;
  f.fit(std::span<const double>(series).first(train), 168);
  const auto pred = f.forecast(168);
  const std::span<const double> test(series.data() + train, 168);
  double mean = 0.0;
  for (std::size_t t = 0; t < train; ++t) mean += series[t] / train;
  const std::vector<double> flat(168, mean);
  EXPECT_LT(smape(test, pred), smape(test, flat) * 0.6);
}

}  // namespace
}  // namespace icn::core
