// Proactive traffic forecasting — the operational motivation the paper opens
// with ("understanding and forecasting traffic demands enables the proactive
// configuration of the wireless network", Sec. 1) applied to the ICN
// clusters.
//
// SeasonalForecaster implements the standard seasonal-median baseline used
// for cellular traffic: every hour-of-week slot is predicted by the median
// of the training observations in that slot. The forecasting example shows
// it works well on the strongly periodic clusters (commuters, offices) and
// fails on the event-driven venue clusters — quantifying why those need
// event calendars instead of history.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace icn::core {

/// Hour-of-week seasonal-median forecaster.
class SeasonalForecaster {
 public:
  /// Fits on an hourly training series whose first sample is slot 0 (for
  /// the study period, hour 0 of Monday 21 Nov 2022). Requires at least one
  /// full season of data.
  void fit(std::span<const double> series, std::size_t season_hours = 168);

  [[nodiscard]] bool is_fitted() const { return !slot_median_.empty(); }

  /// Predicts the `horizon` hours following the training series.
  [[nodiscard]] std::vector<double> forecast(std::size_t horizon) const;

 private:
  std::vector<double> slot_median_;
  std::size_t train_hours_ = 0;
};

/// Fits one SeasonalForecaster per series, in parallel across antennas on
/// the active thread pool. Forecaster i is exactly what
/// `SeasonalForecaster::fit(series[i], season_hours)` produces — each fit is
/// independent, so the batch is bit-identical to the serial loop for every
/// thread count.
[[nodiscard]] std::vector<SeasonalForecaster> fit_seasonal_batch(
    std::span<const std::span<const double>> series,
    std::size_t season_hours = 168);

/// Symmetric mean absolute percentage error (sMAPE, in [0, 2]): robust to
/// near-zero hours, which dominate night traffic. Requires equal non-empty
/// sizes.
[[nodiscard]] double smape(std::span<const double> actual,
                           std::span<const double> predicted);

}  // namespace icn::core
