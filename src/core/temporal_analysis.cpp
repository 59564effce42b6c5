#include "core/temporal_analysis.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace icn::core {
namespace {

using icn::util::DateRange;

/// Seed of the per-cluster antenna subsample.
constexpr std::uint64_t kSampleSeed = 11;

/// Indices of antennas in the cluster, deterministically subsampled.
std::vector<std::size_t> cluster_members(std::span<const int> labels,
                                         int cluster,
                                         const HeatmapParams& params) {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == cluster) members.push_back(i);
  }
  ICN_REQUIRE(!members.empty(), "empty cluster in heatmap");
  if (params.max_antennas != 0 && members.size() > params.max_antennas) {
    icn::util::Rng rng(icn::util::derive_seed(
        kSampleSeed, static_cast<std::uint64_t>(cluster)));
    for (std::size_t i = 0; i < params.max_antennas; ++i) {
      const std::size_t j = i + rng.uniform_index(members.size() - i);
      std::swap(members[i], members[j]);
    }
    members.resize(params.max_antennas);
  }
  return members;
}

/// Builds the heatmap from per-antenna full-period series.
template <typename SeriesFn>
TemporalHeatmap build_heatmap(const traffic::TemporalModel& temporal,
                              std::span<const int> labels, int cluster,
                              const HeatmapParams& params,
                              SeriesFn&& series_of) {
  const DateRange& period = temporal.period();
  ICN_REQUIRE(period.contains(params.window.first()) &&
                  period.contains(params.window.last()),
              "heatmap window outside modeled period");
  const std::int64_t first_hour = period.index_of(params.window.first()) * 24;
  const auto days = static_cast<std::size_t>(params.window.num_days());
  const std::size_t hours = days * 24;

  const auto members = cluster_members(labels, cluster, params);
  // per-hour values across member antennas
  std::vector<std::vector<double>> window_series;
  window_series.reserve(members.size());
  for (const std::size_t antenna : members) {
    const std::vector<double> full = series_of(antenna);
    window_series.emplace_back(
        full.begin() + first_hour, full.begin() + first_hour +
                                       static_cast<std::int64_t>(hours));
  }

  TemporalHeatmap map;
  map.window = params.window;
  map.days = days;
  map.values.assign(24 * days, 0.0);
  std::vector<double> column(members.size());
  double peak = 0.0;
  for (std::size_t t = 0; t < hours; ++t) {
    for (std::size_t a = 0; a < members.size(); ++a) {
      column[a] = window_series[a][t];
    }
    const double med = icn::util::median(column);
    const std::size_t day = t / 24;
    const std::size_t hod = t % 24;
    map.values[hod * days + day] = med;
    peak = std::max(peak, med);
  }
  map.peak_mb = peak;
  if (peak > 0.0) {
    for (auto& v : map.values) v /= peak;
  }
  return map;
}

}  // namespace

TemporalHeatmap cluster_total_heatmap(const traffic::TemporalModel& temporal,
                                      std::span<const int> labels,
                                      int cluster,
                                      const HeatmapParams& params) {
  return build_heatmap(temporal, labels, cluster, params,
                       [&](std::size_t antenna) {
                         return temporal.hourly_total_series(antenna);
                       });
}

TemporalHeatmap cluster_service_heatmap(
    const traffic::TemporalModel& temporal, std::span<const int> labels,
    int cluster, std::size_t service, const HeatmapParams& params) {
  return build_heatmap(temporal, labels, cluster, params,
                       [&](std::size_t antenna) {
                         return temporal.hourly_service_series(antenna,
                                                               service);
                       });
}

std::vector<double> hour_of_day_profile(const TemporalHeatmap& map) {
  std::vector<double> out(24, 0.0);
  if (map.days == 0) return out;
  for (int h = 0; h < 24; ++h) {
    double acc = 0.0;
    for (std::size_t d = 0; d < map.days; ++d) acc += map.at(h, d);
    out[static_cast<std::size_t>(h)] = acc / static_cast<double>(map.days);
  }
  return out;
}

std::vector<double> day_profile(const TemporalHeatmap& map) {
  std::vector<double> out(map.days, 0.0);
  for (std::size_t d = 0; d < map.days; ++d) {
    double acc = 0.0;
    for (int h = 0; h < 24; ++h) acc += map.at(h, d);
    out[d] = acc / 24.0;
  }
  return out;
}

}  // namespace icn::core
