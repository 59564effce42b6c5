// One-call facade running the paper's full methodology:
//   synthetic study -> T matrix -> RSCA -> Ward clustering + k sweep ->
//   label alignment -> random-forest surrogate -> ready for SHAP /
//   environment / temporal / outdoor analyses.
//
// Two entry points share the analysis back-end: run_pipeline synthesizes the
// study in memory, run_pipeline_from_snapshot feeds the same analyses from a
// mmap-loaded store snapshot (the durable artifact of a streaming ingest),
// producing bit-identical outputs for the same T matrix.
//
// Degraded mode: a snapshot carrying a kCoverage section (a multi-probe
// study with dropout windows or quarantined feeds) is analyzed honestly —
// antennas whose covered-hour fraction falls below
// PipelineParams::min_antenna_coverage are excluded from clustering, and the
// CoverageReport lists every excluded antenna and every uncovered hour range
// so the analysis states exactly what was lost instead of treating absence
// as zero traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/clustering.h"
#include "core/scenario.h"
#include "core/surrogate.h"
#include "ml/matrix.h"
#include "stream/coverage.h"

namespace icn::core {

/// Pipeline configuration.
struct PipelineParams {
  ScenarioParams scenario;
  ClusterAnalysisParams clustering;
  SurrogateParams surrogate;
  /// When the chosen k equals the number of generative archetypes, relabel
  /// the clusters by Hungarian matching against the ground-truth archetypes
  /// so cluster ids follow the paper's numbering (0..8). Purely cosmetic;
  /// recorded in `label_map`.
  bool align_to_archetypes = true;
  /// Degraded mode: antennas whose covered-hour fraction is below this
  /// threshold are excluded from the analysis (their totals are too biased
  /// by the missing hours to cluster). In [0, 1].
  double min_antenna_coverage = 0.5;
};

/// Coverage accounting for one antenna row with at least one uncovered hour.
struct AntennaCoverage {
  std::size_t row = 0;          ///< Row index in the study tensor.
  std::uint32_t antenna_id = 0; ///< From kStreamMeta when present, else row.
  double fraction = 0.0;        ///< Covered-hour fraction, in [0, 1].
  bool excluded = false;        ///< True when fraction < the threshold.
  std::vector<stream::HourRange> gaps;  ///< Uncovered hour runs, ascending.
};

/// What a degraded run analyzed, excluded, and lost.
struct CoverageReport {
  bool degraded = false;  ///< True when any (antenna, hour) cell is missing.
  double threshold = 1.0; ///< The min_antenna_coverage that was applied.
  std::size_t total_rows = 0;
  std::size_t covered_cells = 0;
  std::size_t total_cells = 0;
  /// Study-wide record-quarantine totals from the ingest's quality layer
  /// (the snapshots' kQuarantine sections). Zero for clean runs and for
  /// snapshots written before the quality layer existed. Rejected records
  /// are data loss below the (antenna, hour) cell granularity: the cell
  /// stays covered unless every record of its batch was rejected.
  std::uint64_t records_rejected = 0;
  std::uint64_t records_repaired = 0;
  /// Rows that entered the analysis, ascending. Labels/RSCA rows of a
  /// degraded result index into this list.
  std::vector<std::size_t> analyzed_rows;
  /// Every row with missing hours (excluded or not), ascending by row.
  std::vector<AntennaCoverage> incomplete;
  /// Antenna ids of the excluded rows, in row order.
  std::vector<std::uint32_t> excluded_antennas;
};

/// Human-readable multi-line summary of a coverage report.
[[nodiscard]] std::string to_text(const CoverageReport& report);

/// Builds the degraded-mode accounting for a study tensor: which rows pass
/// `threshold`, which are excluded, and every uncovered hour range.
/// `antenna_ids` may be empty (ids default to row indices); otherwise its
/// size must equal mask.rows().
[[nodiscard]] CoverageReport build_coverage_report(
    const stream::CoverageMask& mask,
    std::span<const std::uint32_t> antenna_ids, double threshold);

/// The analysis outputs computed from a T matrix (no scenario attached).
struct TrafficAnalysis {
  ml::Matrix rsca;                ///< N x M RSCA feature matrix.
  ClusterAnalysisResult clusters; ///< Labels already aligned when requested.
  std::vector<int> label_map;     ///< raw dendrogram label -> reported label.
  std::unique_ptr<SurrogateExplainer> surrogate;  ///< Trained on the labels.
};

/// Runs RSCA -> clustering -> (optional archetype alignment) -> surrogate on
/// an already-aggregated T matrix. `archetype_truth` (labels per antenna row)
/// enables the alignment step; pass nullptr when no ground truth exists
/// (e.g. a matrix loaded from a measurement snapshot). Deterministic: the
/// same matrix bits produce the same outputs.
[[nodiscard]] TrafficAnalysis analyze_traffic(
    const ml::Matrix& traffic_mb, const PipelineParams& params,
    const std::vector<int>* archetype_truth = nullptr);

/// Everything the analyses need, with stable ownership.
struct PipelineResult {
  Scenario scenario;
  ml::Matrix rsca;                ///< N x M RSCA feature matrix.
  ClusterAnalysisResult clusters; ///< Labels already aligned when requested.
  std::vector<int> label_map;     ///< raw dendrogram label -> reported label.
  std::unique_ptr<SurrogateExplainer> surrogate;  ///< Trained on the labels.
  double ari_vs_archetypes = 0.0; ///< Recovery of the generative archetypes.
};

/// Runs the full pipeline. Deterministic for fixed params.
[[nodiscard]] PipelineResult run_pipeline(const PipelineParams& params);

/// A pipeline run fed from a snapshot instead of in-memory synthesis.
struct SnapshotPipelineResult {
  ml::Matrix traffic;        ///< The full T matrix loaded from the snapshot.
  /// Degraded-mode accounting. When coverage.degraded, the analysis ran on
  /// the coverage.analyzed_rows submatrix of `traffic`; otherwise on all
  /// rows.
  CoverageReport coverage;
  TrafficAnalysis analysis;  ///< Same back-end as run_pipeline.
};

/// Reads the study in the store snapshot at `path` (stream::read_study: the
/// T matrix is a kMatrix section or, for ingest checkpoints, the fold of
/// all kWindow sections) and runs the analysis back-end on it. A kCoverage
/// section switches on degraded mode (see CoverageReport). params.scenario
/// is ignored (the snapshot replaces synthesis). Throws store::SnapshotError
/// on a corrupt/truncated snapshot, one whose sections disagree with its
/// kStreamMeta, or one carrying no tensor.
[[nodiscard]] SnapshotPipelineResult run_pipeline_from_snapshot(
    const std::string& path, const PipelineParams& params);

/// Multi-probe entry point: recovers and merges the per-probe checkpoints
/// (stream::merge_snapshots) and analyzes the merged study under its
/// coverage mask — the end-to-end degraded path of a faulty plant.
[[nodiscard]] SnapshotPipelineResult run_pipeline_from_snapshots(
    std::span<const std::string> paths, const PipelineParams& params);

}  // namespace icn::core
