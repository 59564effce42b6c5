// Temporal analysis (Sec. 6): per-cluster and per-service heatmaps of the
// normalized median hourly traffic across the antennas of a cluster, over the
// Figs. 10-11 window (04-24 Jan 2023).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "traffic/temporal.h"
#include "util/calendar.h"

namespace icn::core {

/// A (24 x days) heatmap of normalized median hourly traffic.
struct TemporalHeatmap {
  icn::util::DateRange window{icn::util::temporal_window()};
  std::size_t days = 0;
  /// Row-major, rows = hour of day (0..23), cols = day index in the window;
  /// normalized so the maximum cell is 1 (all-zero stays zero).
  std::vector<double> values;
  /// Maximum median traffic (MB/h) before normalization.
  double peak_mb = 0.0;

  [[nodiscard]] double at(int hour_of_day, std::size_t day) const {
    return values[static_cast<std::size_t>(hour_of_day) * days + day];
  }
};

/// Heatmap computation options.
struct HeatmapParams {
  icn::util::DateRange window{icn::util::temporal_window()};
  /// Cap on antennas sampled per cluster (they are drawn deterministically);
  /// 0 = use every antenna of the cluster.
  std::size_t max_antennas = 400;
};

/// Fig. 10: normalized median heatmap of the *total* traffic of the antennas
/// in `cluster`. Requires at least one antenna in the cluster and the window
/// to lie within the model's period.
[[nodiscard]] TemporalHeatmap cluster_total_heatmap(
    const traffic::TemporalModel& temporal, std::span<const int> labels,
    int cluster, const HeatmapParams& params = {});

/// Fig. 11: same, for a single service.
[[nodiscard]] TemporalHeatmap cluster_service_heatmap(
    const traffic::TemporalModel& temporal, std::span<const int> labels,
    int cluster, std::size_t service, const HeatmapParams& params = {});

/// Aggregate of a heatmap by hour-of-day (mean over days) — a compact series
/// used by tests and examples to check peak positions.
[[nodiscard]] std::vector<double> hour_of_day_profile(
    const TemporalHeatmap& map);

/// Aggregate of a heatmap by day (mean over hours).
[[nodiscard]] std::vector<double> day_profile(const TemporalHeatmap& map);

}  // namespace icn::core
