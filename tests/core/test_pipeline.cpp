// Integration tests: the full paper methodology end-to-end, plus the
// measurement-path consistency check (probe aggregation == generator tensor).
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/environment_analysis.h"
#include "store/snapshot.h"
#include "core/rca.h"
#include "ml/metrics.h"
#include "probe/aggregate.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "traffic/flows.h"
#include "util/rng.h"
#include "util/stats.h"

namespace icn::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineParams params;
    params.scenario.seed = 2023;
    params.scenario.scale = 0.15;
    params.scenario.outdoor_ratio = 0.3;
    params.surrogate.num_trees = 50;
    result_ = new PipelineResult(run_pipeline(params));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static PipelineResult* result_;
};

PipelineResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, RecoversNineArchetypesPerfectly) {
  EXPECT_EQ(result_->clusters.chosen_k, 9u);
  EXPECT_GT(result_->ari_vs_archetypes, 0.98);
}

TEST_F(PipelineTest, SuggestedKIsNine) {
  EXPECT_EQ(suggest_k(result_->clusters.sweep), 9u);
}

TEST_F(PipelineTest, AlignedLabelsMatchArchetypeSemantics) {
  // After alignment, label c == archetype c for almost every antenna.
  const auto& truth = result_->scenario.demand().archetype_labels();
  EXPECT_GT(ml::accuracy(result_->clusters.labels, truth), 0.98);
}

TEST_F(PipelineTest, SurrogateIsFaithful) {
  EXPECT_GT(result_->surrogate->fidelity(), 0.99);
  EXPECT_GT(result_->surrogate->oob_accuracy(), 0.95);
}

TEST_F(PipelineTest, RscaFeaturesWithinBounds) {
  EXPECT_EQ(result_->rsca.rows(), result_->scenario.num_antennas());
  EXPECT_EQ(result_->rsca.cols(), 73u);
  for (const double v : result_->rsca.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(PipelineTest, EnvironmentStructureMatchesPaper) {
  const EnvironmentCorrelation env(result_->scenario,
                                   result_->clusters.labels, 9);
  // Orange clusters: transit only.
  for (const std::size_t c : {0u, 4u, 7u}) {
    EXPECT_GT(env.share_of_cluster(c, net::Environment::kMetro) +
                  env.share_of_cluster(c, net::Environment::kTrain),
              0.95)
        << "cluster " << c;
  }
  // Cluster 3 dominated by workspaces; most workspaces in cluster 3.
  EXPECT_GT(env.share_of_cluster(3, net::Environment::kWorkspace), 0.5);
  EXPECT_GT(env.share_of_environment(net::Environment::kWorkspace, 3), 0.6);
  // Airports and tunnels in cluster 1; hospitals in cluster 2.
  EXPECT_GT(env.share_of_environment(net::Environment::kAirport, 1), 0.8);
  EXPECT_GT(env.share_of_environment(net::Environment::kTunnel, 1), 0.8);
  EXPECT_GT(env.share_of_environment(net::Environment::kHospital, 2), 0.8);
}

TEST_F(PipelineTest, LabelMapIsAPermutation) {
  std::vector<int> sorted = result_->label_map;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected(9);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sorted, expected);
}

TEST_F(PipelineTest, DisablingAlignmentKeepsRawLabels) {
  PipelineParams params;
  params.scenario.seed = 2023;
  params.scenario.scale = 0.05;
  params.scenario.outdoor_ratio = 0.0;
  params.align_to_archetypes = false;
  params.surrogate.num_trees = 10;
  const auto raw = run_pipeline(params);
  // Identity map recorded.
  for (std::size_t c = 0; c < raw.label_map.size(); ++c) {
    EXPECT_EQ(raw.label_map[c], static_cast<int>(c));
  }
  // ARI is still computed (alignment only renames labels, ARI invariant).
  EXPECT_GT(raw.ari_vs_archetypes, 0.9);
}

TEST(ProbePathTest, ProbeAggregationReproducesGeneratorTensor) {
  // The end-to-end measurement invariant: synthesize flows, push them
  // through ULI decoding + DPI + hourly aggregation, and recover exactly
  // the (antenna, service, hour) tensor the fast path reports.
  ScenarioParams params;
  params.seed = 77;
  params.scale = 0.01;
  params.outdoor_ratio = 0.0;
  const Scenario scenario = Scenario::build(params);
  const traffic::FlowGenerator generator(scenario.temporal(), 123);

  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0),
                         static_cast<std::uint32_t>(scenario.num_antennas()));
  probe::DpiClassifier dpi(scenario.catalog());
  probe::PassiveProbe passive(decoder, dpi);

  // Two antennas, first 3 days of the study.
  const std::int64_t hours = 72;
  const std::vector<std::uint32_t> ids = {0, 1};
  probe::HourlyAggregator agg(ids, scenario.num_services(), hours);
  for (const std::uint32_t antenna : ids) {
    const auto flows = generator.flows_for_antenna(antenna, 0, hours);
    agg.add_all(passive.observe_all(flows));
  }
  EXPECT_EQ(passive.unknown_location(), 0u);
  EXPECT_EQ(dpi.unmatched(), 0u);
  EXPECT_EQ(agg.dropped(), 0u);

  for (const std::uint32_t antenna : ids) {
    for (std::size_t j = 0; j < scenario.num_services(); j += 7) {
      const auto expected =
          scenario.temporal().hourly_service_series(antenna, j);
      const auto measured = agg.series(antenna, j);
      for (std::int64_t t = 0; t < hours; ++t) {
        EXPECT_NEAR(measured[static_cast<std::size_t>(t)],
                    expected[static_cast<std::size_t>(t)],
                    1e-6 * std::max(1.0,
                                    expected[static_cast<std::size_t>(t)]))
            << "antenna " << antenna << " service " << j << " hour " << t;
      }
    }
  }
}

TEST(SnapshotPipelineTest, SnapshotFedRunIsBitIdenticalToInMemoryRun) {
  // Acceptance: persist the demand T matrix, mmap it back, and the whole
  // analysis chain (RSCA -> clustering -> surrogate) must reproduce the
  // in-memory run bit for bit.
  PipelineParams params;
  params.scenario.seed = 2023;
  params.scenario.scale = 0.05;
  params.scenario.outdoor_ratio = 0.0;
  params.align_to_archetypes = false;  // no ground truth in a snapshot
  params.surrogate.num_trees = 10;
  const auto live = run_pipeline(params);

  const std::string path = ::testing::TempDir() + "icn_pipeline_rt.snap";
  std::remove(path.c_str());
  {
    store::SnapshotWriter writer(path);
    writer.append_matrix(live.scenario.demand().traffic_matrix());
    writer.close();
  }
  const auto from_snapshot = run_pipeline_from_snapshot(path, params);
  std::remove(path.c_str());

  // The loaded matrix is the same bits...
  const auto& original = live.scenario.demand().traffic_matrix();
  ASSERT_EQ(from_snapshot.traffic.rows(), original.rows());
  ASSERT_EQ(from_snapshot.traffic.cols(), original.cols());
  for (std::size_t i = 0; i < original.data().size(); ++i) {
    ASSERT_EQ(from_snapshot.traffic.data()[i], original.data()[i]);
  }
  // ...so every analysis output is too.
  EXPECT_EQ(from_snapshot.analysis.clusters.chosen_k,
            live.clusters.chosen_k);
  EXPECT_EQ(from_snapshot.analysis.clusters.labels, live.clusters.labels);
  ASSERT_EQ(from_snapshot.analysis.clusters.sweep.size(),
            live.clusters.sweep.size());
  for (std::size_t i = 0; i < live.clusters.sweep.size(); ++i) {
    EXPECT_EQ(from_snapshot.analysis.clusters.sweep[i].silhouette,
              live.clusters.sweep[i].silhouette);
  }
  for (std::size_t i = 0; i < live.rsca.data().size(); ++i) {
    ASSERT_EQ(from_snapshot.analysis.rsca.data()[i], live.rsca.data()[i]);
  }
  EXPECT_EQ(from_snapshot.analysis.surrogate->fidelity(),
            live.surrogate->fidelity());
}

TEST(SnapshotPipelineTest, SnapshotWithoutTensorIsRejected) {
  const std::string path = ::testing::TempDir() + "icn_pipeline_empty.snap";
  std::remove(path.c_str());
  {
    store::SnapshotWriter writer(path);
    writer.close();
  }
  PipelineParams params;
  EXPECT_THROW(run_pipeline_from_snapshot(path, params),
               store::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotPipelineTest, WindowOfAnotherShapeIsASnapshotError) {
  // A CRC-valid kWindow of 5 cells where kStreamMeta (2 antennas x 3
  // services) promises 6: the map refuses the file, as promised above,
  // instead of the window fold failing a precondition.
  const std::string path = ::testing::TempDir() + "icn_pipeline_skew.snap";
  std::remove(path.c_str());
  {
    store::SnapshotWriter writer(path);
    writer.append_stream_meta(std::vector<std::uint32_t>{7, 8}, 3, 4);
    writer.append_window(0, std::vector<double>(5, 1.0));
    writer.close();
  }
  PipelineParams params;
  EXPECT_THROW(run_pipeline_from_snapshot(path, params),
               store::SnapshotError);
  std::remove(path.c_str());
}

TEST(DegradedPipelineTest, PartialCoverageExcludesAntennasAndReportsGaps) {
  // A merged multi-probe study with injected dropout windows: the pipeline
  // must complete, exclude exactly the under-covered antennas, and report
  // the uncovered hour ranges verbatim.
  PipelineParams params;
  params.scenario.seed = 2023;
  params.scenario.scale = 0.05;
  params.scenario.outdoor_ratio = 0.0;
  params.align_to_archetypes = false;
  params.surrogate.num_trees = 10;
  params.min_antenna_coverage = 0.5;
  const Scenario scenario = Scenario::build(params.scenario);
  const ml::Matrix& traffic = scenario.demand().traffic_matrix();
  const std::size_t rows = traffic.rows();
  ASSERT_GE(rows, 20u);
  const std::int64_t hours = 48;

  stream::MergedStudy study;
  study.traffic = traffic;
  for (std::size_t r = 0; r < rows; ++r) {
    study.antenna_ids.push_back(static_cast<std::uint32_t>(1000 + r));
  }
  study.coverage = stream::CoverageMask(rows, hours);
  const std::vector<std::uint8_t> full_row(static_cast<std::size_t>(hours), 1);
  for (std::size_t r = 0; r < rows; ++r) study.coverage.set_row(r, full_row);
  // Row 0: dropout windows [5, 10) and [20, 22) — stays above threshold.
  std::vector<std::uint8_t> row0(static_cast<std::size_t>(hours), 1);
  std::fill(row0.begin() + 5, row0.begin() + 10, 0);
  std::fill(row0.begin() + 20, row0.begin() + 22, 0);
  study.coverage.set_row(0, row0);
  // Rows 3 and 7: covered for 12 of 48 hours only — excluded.
  std::vector<std::uint8_t> short_row(static_cast<std::size_t>(hours), 0);
  std::fill(short_row.begin(), short_row.begin() + 12, 1);
  study.coverage.set_row(3, short_row);
  study.coverage.set_row(7, short_row);

  const std::string path = ::testing::TempDir() + "icn_degraded.snap";
  std::remove(path.c_str());
  stream::write_merged_snapshot(study, path);
  const auto result = run_pipeline_from_snapshot(path, params);
  std::remove(path.c_str());

  const CoverageReport& report = result.coverage;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.threshold, 0.5);
  EXPECT_EQ(report.total_rows, rows);
  EXPECT_EQ(report.analyzed_rows.size(), rows - 2);
  EXPECT_EQ(report.excluded_antennas,
            (std::vector<std::uint32_t>{1003, 1007}));
  ASSERT_EQ(report.incomplete.size(), 3u);
  EXPECT_EQ(report.incomplete[0].row, 0u);
  EXPECT_FALSE(report.incomplete[0].excluded);
  EXPECT_EQ(report.incomplete[0].gaps,
            (std::vector<stream::HourRange>{{5, 10}, {20, 22}}));
  EXPECT_EQ(report.incomplete[1].row, 3u);
  EXPECT_TRUE(report.incomplete[1].excluded);
  EXPECT_EQ(report.incomplete[1].gaps,
            (std::vector<stream::HourRange>{{12, 48}}));
  EXPECT_EQ(report.covered_cells,
            static_cast<std::size_t>(rows) * 48 - 7 - 2 * 36);

  // The analysis ran on exactly the surviving rows, bit-identical to
  // analyzing that submatrix directly.
  const ml::Matrix sub = traffic.select_rows(report.analyzed_rows);
  const auto direct = analyze_traffic(sub, params);
  EXPECT_EQ(result.analysis.clusters.labels, direct.clusters.labels);
  ASSERT_EQ(result.analysis.rsca.rows(), rows - 2);
  for (std::size_t i = 0; i < direct.rsca.data().size(); ++i) {
    ASSERT_EQ(result.analysis.rsca.data()[i], direct.rsca.data()[i]);
  }

  // The human-readable report names the exclusions and the gaps.
  const std::string text = to_text(report);
  EXPECT_NE(text.find("antenna 1003"), std::string::npos);
  EXPECT_NE(text.find("EXCLUDED"), std::string::npos);
  EXPECT_NE(text.find("[5,10)"), std::string::npos);
}

TEST(DegradedPipelineTest, FullCoverageSnapshotIsNotDegraded) {
  PipelineParams params;
  params.scenario.seed = 2023;
  params.scenario.scale = 0.05;
  params.scenario.outdoor_ratio = 0.0;
  params.align_to_archetypes = false;
  params.surrogate.num_trees = 10;
  const Scenario scenario = Scenario::build(params.scenario);

  const std::string path = ::testing::TempDir() + "icn_fullcov.snap";
  std::remove(path.c_str());
  {
    store::SnapshotWriter writer(path);
    writer.append_matrix(scenario.demand().traffic_matrix());
    writer.close();
  }
  const auto result = run_pipeline_from_snapshot(path, params);
  std::remove(path.c_str());
  EXPECT_FALSE(result.coverage.degraded);
  EXPECT_EQ(result.coverage.analyzed_rows.size(),
            scenario.demand().traffic_matrix().rows());
  EXPECT_TRUE(result.coverage.incomplete.empty());
  EXPECT_TRUE(result.coverage.excluded_antennas.empty());
}

TEST(DegradedPipelineTest, QuarantineSectionSurfacesInCoverageReport) {
  PipelineParams params;
  params.scenario.seed = 2024;
  params.scenario.scale = 0.05;
  params.scenario.outdoor_ratio = 0.0;
  params.align_to_archetypes = false;
  params.surrogate.num_trees = 10;
  const Scenario scenario = Scenario::build(params.scenario);

  const std::string path = ::testing::TempDir() + "icn_quarantine.snap";
  std::remove(path.c_str());
  {
    store::SnapshotWriter writer(path);
    writer.append_matrix(scenario.demand().traffic_matrix());
    const std::vector<std::uint32_t> rejected = {0, 3, 0, 1};
    const std::vector<std::uint32_t> repaired = {2, 0, 0, 5};
    writer.append_quarantine(4, rejected, repaired);
    writer.close();
  }
  const auto result = run_pipeline_from_snapshot(path, params);
  std::remove(path.c_str());
  EXPECT_EQ(result.coverage.records_rejected, 4u);
  EXPECT_EQ(result.coverage.records_repaired, 7u);
  const std::string text = to_text(result.coverage);
  EXPECT_NE(text.find("quarantined records: 4 rejected, 7 repaired"),
            std::string::npos);
}

TEST(DegradedPipelineTest, MultiSnapshotMergeAnalyzesAcrossProbeFiles) {
  // Two per-probe ingest checkpoints, the second with half its hours lost:
  // run_pipeline_from_snapshots merges, excludes the under-covered probe,
  // and analyzes the rest.
  constexpr std::size_t kPerProbe = 12;
  constexpr std::size_t kSvc = 4;
  constexpr std::int64_t kH = 24;
  auto make_checkpoint = [](const std::string& path, std::uint32_t first_id,
                            std::int64_t hours_present, std::uint64_t seed) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < kPerProbe; ++i) {
      ids.push_back(first_id + static_cast<std::uint32_t>(i));
    }
    stream::IngestParams params;
    params.antenna_ids = ids;
    params.num_services = kSvc;
    params.num_hours = kH;
    auto writer = stream::begin_checkpoint(path, params);
    stream::StreamIngestor ingest(params, &writer);
    icn::util::Rng rng(seed);
    for (std::int64_t h = 0; h < hours_present; ++h) {
      std::vector<probe::ServiceSession> batch;
      for (const std::uint32_t id : ids) {
        probe::ServiceSession s;
        s.antenna_id = id;
        s.service = rng.uniform_index(kSvc);
        s.hour = h;
        s.down_bytes = rng.uniform(1.0e4, 1.0e6);
        batch.push_back(s);
      }
      ingest.push(batch);
    }
    ingest.finish();
    if (hours_present < kH) {
      std::vector<std::uint8_t> covered(static_cast<std::size_t>(kH), 0);
      for (std::int64_t h = 0; h < hours_present; ++h) {
        covered[static_cast<std::size_t>(h)] = 1;
      }
      writer.append_coverage(1, kH, covered);
    }
    writer.sync();
    writer.close();
  };

  const std::string path_a = ::testing::TempDir() + "icn_probe_a.snap";
  const std::string path_b = ::testing::TempDir() + "icn_probe_b.snap";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  make_checkpoint(path_a, 0, kH, 900);
  make_checkpoint(path_b, 100, kH / 4, 901);  // 25% covered -> excluded

  PipelineParams params;
  params.align_to_archetypes = false;
  params.surrogate.num_trees = 5;
  params.clustering.k_min = 2;
  params.clustering.k_max = 4;
  params.clustering.chosen_k = 2;
  params.min_antenna_coverage = 0.5;
  const std::vector<std::string> paths = {path_a, path_b};
  const auto result = run_pipeline_from_snapshots(paths, params);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  EXPECT_TRUE(result.coverage.degraded);
  EXPECT_EQ(result.coverage.total_rows, 2 * kPerProbe);
  EXPECT_EQ(result.coverage.analyzed_rows.size(), kPerProbe);
  ASSERT_EQ(result.coverage.excluded_antennas.size(), kPerProbe);
  EXPECT_EQ(result.coverage.excluded_antennas.front(), 100u);
  EXPECT_EQ(result.analysis.clusters.labels.size(), kPerProbe);
  // Probe B's gaps are exactly its lost hours.
  for (const auto& antenna : result.coverage.incomplete) {
    EXPECT_EQ(antenna.gaps,
              (std::vector<stream::HourRange>{{kH / 4, kH}}));
  }
}

TEST(PipelineDeterminismTest, TwoRunsIdentical) {
  PipelineParams params;
  params.scenario.seed = 31;
  params.scenario.scale = 0.03;
  params.scenario.outdoor_ratio = 0.0;
  params.surrogate.num_trees = 8;
  const auto a = run_pipeline(params);
  const auto b = run_pipeline(params);
  EXPECT_EQ(a.clusters.labels, b.clusters.labels);
  EXPECT_DOUBLE_EQ(a.ari_vs_archetypes, b.ari_vs_archetypes);
  for (std::size_t i = 0; i < a.clusters.sweep.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.clusters.sweep[i].silhouette,
                     b.clusters.sweep[i].silhouette);
  }
}

}  // namespace
}  // namespace icn::core
