#include "core/pipeline.h"

#include <cstdio>
#include <numeric>

#include "core/rca.h"
#include "ml/hungarian.h"
#include "store/snapshot.h"
#include "stream/supervise.h"
#include "util/error.h"
#include "util/stats.h"

namespace icn::core {

TrafficAnalysis analyze_traffic(const ml::Matrix& traffic_mb,
                                const PipelineParams& params,
                                const std::vector<int>* archetype_truth) {
  TrafficAnalysis analysis;
  analysis.rsca = compute_rsca(traffic_mb);
  analysis.clusters = analyze_clusters(analysis.rsca, params.clustering);

  const std::size_t k = analysis.clusters.chosen_k;
  // Identity map by default.
  analysis.label_map.resize(k);
  std::iota(analysis.label_map.begin(), analysis.label_map.end(), 0);
  if (params.align_to_archetypes && archetype_truth != nullptr &&
      k == traffic::kNumArchetypes) {
    analysis.label_map = ml::align_labels(analysis.clusters.labels,
                                          *archetype_truth,
                                          static_cast<int>(k));
    analysis.clusters.labels =
        ml::apply_label_map(analysis.clusters.labels, analysis.label_map);
  }
  analysis.surrogate = std::make_unique<SurrogateExplainer>(
      analysis.rsca, analysis.clusters.labels, static_cast<int>(k),
      params.surrogate);
  return analysis;
}

PipelineResult run_pipeline(const PipelineParams& params) {
  PipelineResult result{Scenario::build(params.scenario), {}, {}, {}, nullptr};
  const auto& truth = result.scenario.demand().archetype_labels();
  TrafficAnalysis analysis = analyze_traffic(
      result.scenario.demand().traffic_matrix(), params, &truth);
  result.rsca = std::move(analysis.rsca);
  result.clusters = std::move(analysis.clusters);
  result.label_map = std::move(analysis.label_map);
  result.surrogate = std::move(analysis.surrogate);
  result.ari_vs_archetypes =
      icn::util::adjusted_rand_index(result.clusters.labels, truth);
  return result;
}

CoverageReport build_coverage_report(
    const stream::CoverageMask& mask,
    std::span<const std::uint32_t> antenna_ids, double threshold) {
  ICN_REQUIRE(threshold >= 0.0 && threshold <= 1.0,
              "min_antenna_coverage in [0, 1]");
  ICN_REQUIRE(antenna_ids.empty() || antenna_ids.size() == mask.rows(),
              "antenna ids must match coverage rows");
  CoverageReport report;
  report.threshold = threshold;
  report.total_rows = mask.rows();
  report.covered_cells = mask.covered_cells();
  report.total_cells =
      mask.rows() * static_cast<std::size_t>(mask.num_hours());
  report.degraded = report.covered_cells < report.total_cells;
  for (std::size_t row = 0; row < mask.rows(); ++row) {
    const std::uint32_t id = antenna_ids.empty()
                                 ? static_cast<std::uint32_t>(row)
                                 : antenna_ids[row];
    const double fraction = mask.row_fraction(row);
    const bool excluded = fraction < threshold;
    if (excluded) {
      report.excluded_antennas.push_back(id);
    } else {
      report.analyzed_rows.push_back(row);
    }
    if (fraction < 1.0) {
      report.incomplete.push_back(
          {row, id, fraction, excluded, mask.gaps(row)});
    }
  }
  return report;
}

std::string to_text(const CoverageReport& report) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "coverage: %zu/%zu cells (%.1f%%), threshold %.2f, "
                "analyzed %zu/%zu antennas\n",
                report.covered_cells, report.total_cells,
                report.total_cells == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(report.covered_cells) /
                          static_cast<double>(report.total_cells),
                report.threshold, report.analyzed_rows.size(),
                report.total_rows);
  std::string out = line;
  if (report.records_rejected > 0 || report.records_repaired > 0) {
    std::snprintf(line, sizeof(line),
                  "quarantined records: %llu rejected, %llu repaired\n",
                  static_cast<unsigned long long>(report.records_rejected),
                  static_cast<unsigned long long>(report.records_repaired));
    out += line;
  }
  for (const auto& antenna : report.incomplete) {
    std::snprintf(line, sizeof(line), "antenna %u: %.1f%% covered%s, gaps",
                  antenna.antenna_id, 100.0 * antenna.fraction,
                  antenna.excluded ? " (EXCLUDED)" : "");
    out += line;
    for (const auto& gap : antenna.gaps) {
      std::snprintf(line, sizeof(line), " [%lld,%lld)",
                    static_cast<long long>(gap.first),
                    static_cast<long long>(gap.last));
      out += line;
    }
    out += '\n';
  }
  return out;
}

namespace {

/// Shared degraded-aware back-end of the snapshot entry points: builds the
/// coverage accounting and analyzes the surviving submatrix.
SnapshotPipelineResult analyze_study(stream::MergedStudy study,
                                     const PipelineParams& params) {
  SnapshotPipelineResult result;
  result.coverage = build_coverage_report(study.coverage, study.antenna_ids,
                                          params.min_antenna_coverage);
  result.coverage.records_rejected = study.quarantine.total_rejected();
  result.coverage.records_repaired = study.quarantine.total_repaired();
  result.traffic = std::move(study.traffic);
  const auto& rows = result.coverage.analyzed_rows;
  ICN_REQUIRE(!rows.empty(), "every antenna fell below the coverage "
                             "threshold; nothing left to analyze");
  if (rows.size() == result.traffic.rows()) {
    result.analysis = analyze_traffic(result.traffic, params);
  } else {
    result.analysis =
        analyze_traffic(result.traffic.select_rows(rows), params);
  }
  return result;
}

}  // namespace

SnapshotPipelineResult run_pipeline_from_snapshot(
    const std::string& path, const PipelineParams& params) {
  // The mapping is released before the analysis starts.
  stream::MergedStudy study = stream::read_study(store::MappedSnapshot(path));
  return analyze_study(std::move(study), params);
}

SnapshotPipelineResult run_pipeline_from_snapshots(
    std::span<const std::string> paths, const PipelineParams& params) {
  return analyze_study(stream::merge_snapshots(paths), params);
}

}  // namespace icn::core
