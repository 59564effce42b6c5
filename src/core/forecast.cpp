#include "core/forecast.h"

#include <cmath>

#include "util/error.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace icn::core {

void SeasonalForecaster::fit(std::span<const double> series,
                             std::size_t season_hours) {
  ICN_REQUIRE(season_hours > 0, "season length");
  ICN_REQUIRE(series.size() >= season_hours,
              "need at least one full season of training data");
  slot_median_.assign(season_hours, 0.0);
  // One bucket serves every slot: median_inplace reorders its first n
  // values, which are rewritten for the next slot.
  std::vector<double> bucket((series.size() + season_hours - 1) /
                             season_hours);
  for (std::size_t slot = 0; slot < season_hours; ++slot) {
    std::size_t n = 0;
    for (std::size_t t = slot; t < series.size(); t += season_hours) {
      bucket[n++] = series[t];
    }
    slot_median_[slot] =
        icn::util::median_inplace(std::span(bucket).first(n));
  }
  train_hours_ = series.size();
}

std::vector<SeasonalForecaster> fit_seasonal_batch(
    std::span<const std::span<const double>> series,
    std::size_t season_hours) {
  std::vector<SeasonalForecaster> out(series.size());
  // Forecaster i is written only by the chunk owning index i, so any
  // decomposition — including stolen chunks — produces the same batch.
  icn::util::parallel_for(
      0, series.size(), 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i].fit(series[i], season_hours);
        }
      });
  return out;
}

std::vector<double> SeasonalForecaster::forecast(std::size_t horizon) const {
  ICN_REQUIRE(is_fitted(), "forecaster not fitted");
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = slot_median_[(train_hours_ + h) % slot_median_.size()];
  }
  return out;
}

double smape(std::span<const double> actual,
             std::span<const double> predicted) {
  ICN_REQUIRE(actual.size() == predicted.size() && !actual.empty(),
              "smape sizes");
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t t = 0; t < actual.size(); ++t) {
    const double denom = std::fabs(actual[t]) + std::fabs(predicted[t]);
    if (denom <= 0.0) continue;  // both zero: perfect, uncounted
    acc += 2.0 * std::fabs(actual[t] - predicted[t]) / denom;
    ++counted;
  }
  return counted == 0 ? 0.0 : acc / static_cast<double>(counted);
}

}  // namespace icn::core
