// study: the paper-scale analysis. N = 4,762 indoor antennas x M = 73
// services, ~22k outdoor antennas, Ward clustering with the k = 2..15
// validity sweep, a 100-tree surrogate forest, TreeSHAP on the stratified
// ~1,080-row sample, and the outdoor cluster distribution. ml, core and
// util/parallel do nearly all of the work here and none in the other
// workloads, so an ml/SIMD/scheduler change shows here and nowhere else.
//
// Set-up is loading the dataset: core::Scenario::build at scale 1.0. The
// unit of work is the time from the T matrix to the complete result.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/outdoor.h"
#include "core/pipeline.h"
#include "core/rca.h"
#include "ml/distance.h"
#include "ml/hungarian.h"
#include "ml/metrics.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;

/// Scenario builds before the first analysis and after each one; setup_s is
/// their median. One build is ~50-80 ms with a 10-18% spread, so a single
/// one cannot carry a bound, and builds made back to back at the start all
/// meet the host in the same second: spread over the run, like the
/// analyses, their median follows the same host conditions.
constexpr int kSetupRepeats = 5;
constexpr int kSetupsPerUnit = 2;
/// Analyses per run at least, whatever --seconds says.
constexpr std::size_t kMinUnits = 3;
/// TreeSHAP sample per cluster (9 x 120 = 1,080 rows when every cluster is
/// large enough).
constexpr std::size_t kShapPerCluster = 120;
/// The paper's k, and the floor on recovering the generative archetypes.
constexpr std::size_t kPaperK = 9;
constexpr double kAriFloor = 0.95;

/// The outputs a user of the study reads, kept whole for bit comparisons.
struct StudyOutput {
  std::vector<int> labels;
  std::vector<core::KSelectionPoint> sweep;
  std::size_t chosen_k = 0;
  core::ShapSummary shap;
  std::vector<int> outdoor;
  std::vector<double> distribution;
  double ari = 0.0;
  std::size_t forest_nodes = 0;
};

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const StudyOutput& a, const StudyOutput& b) {
  if (a.labels != b.labels || a.chosen_k != b.chosen_k ||
      a.outdoor != b.outdoor || !same_doubles(a.distribution, b.distribution) ||
      a.sweep.size() != b.sweep.size() ||
      a.shap.samples_used != b.shap.samples_used ||
      !same_doubles(a.shap.base_values, b.shap.base_values) ||
      a.shap.per_cluster.size() != b.shap.per_cluster.size() ||
      std::memcmp(&a.ari, &b.ari, sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t i = 0; i < a.sweep.size(); ++i) {
    const auto& p = a.sweep[i];
    const auto& q = b.sweep[i];
    if (p.k != q.k || std::memcmp(&p.silhouette, &q.silhouette, 8) != 0 ||
        std::memcmp(&p.dunn, &q.dunn, 8) != 0) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.shap.per_cluster.size(); ++c) {
    const auto& x = a.shap.per_cluster[c];
    const auto& y = b.shap.per_cluster[c];
    if (x.size() != y.size()) return false;
    for (std::size_t f = 0; f < x.size(); ++f) {
      if (x[f].service != y[f].service ||
          std::memcmp(&x[f].mean_abs_shap, &y[f].mean_abs_shap, 8) != 0 ||
          std::memcmp(&x[f].value_shap_correlation,
                      &y[f].value_shap_correlation, 8) != 0 ||
          std::memcmp(&x[f].mean_value_in_cluster,
                      &y[f].mean_value_in_cluster, 8) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::size_t count_nodes(const ml::RandomForest& forest) {
  std::size_t nodes = 0;
  for (const auto& tree : forest.trees()) nodes += tree.nodes().size();
  return nodes;
}

/// The end-to-end unit: the library's own entry points, no spans.
StudyOutput analyze(const core::Scenario& scenario,
                    const core::PipelineParams& params) {
  const ml::Matrix& traffic = scenario.demand().traffic_matrix();
  const auto& truth = scenario.demand().archetype_labels();
  core::TrafficAnalysis analysis =
      core::analyze_traffic(traffic, params, &truth);
  StudyOutput out;
  out.shap = analysis.surrogate->explain(analysis.rsca, analysis.clusters.labels,
                                         kShapPerCluster);
  const core::OutdoorComparison outdoor =
      core::compare_outdoor(scenario, *analysis.surrogate, traffic);
  out.ari = util::adjusted_rand_index(analysis.clusters.labels, truth);
  out.forest_nodes = count_nodes(analysis.surrogate->forest());
  out.labels = std::move(analysis.clusters.labels);
  out.sweep = std::move(analysis.clusters.sweep);
  out.chosen_k = analysis.clusters.chosen_k;
  out.outdoor = outdoor.predicted;
  out.distribution = outdoor.distribution;
  return out;
}

/// The same chain as analyze(), one public call per layer, each in a span.
/// Its outputs must be bit-identical to analyze()'s.
StudyOutput analyze_traced(const core::Scenario& scenario,
                           const core::PipelineParams& params, Tracer& tracer,
                           int unit) {
  const ml::Matrix& traffic = scenario.demand().traffic_matrix();
  const auto& truth = scenario.demand().archetype_labels();
  StudyOutput out;

  ml::Matrix rsca;
  {
    const Span span(&tracer, "core.rsca", unit);
    rsca = core::compute_rsca(traffic);
  }
  const auto& cp = params.clustering;
  ml::Dendrogram dendrogram{1, {}};
  {
    const Span span(&tracer, "ml.ward", unit);
    dendrogram = ml::agglomerative_cluster(rsca, cp.linkage);
  }
  std::unique_ptr<ml::CondensedDistances> dist;
  {
    const Span span(&tracer, "ml.condensed", unit);
    dist = std::make_unique<ml::CondensedDistances>(rsca);
  }
  {
    const Span span(&tracer, "ml.ksweep", unit);
    for (std::size_t k = cp.k_min; k <= cp.k_max; ++k) {
      const auto labels = dendrogram.cut(k);
      core::KSelectionPoint point;
      point.k = k;
      point.silhouette = ml::silhouette_score(*dist, labels);
      point.dunn = ml::dunn_index(*dist, labels);
      out.sweep.push_back(point);
    }
  }
  dist.reset();
  out.chosen_k = cp.chosen_k != 0 ? cp.chosen_k : core::suggest_k(out.sweep);
  out.labels = dendrogram.cut(out.chosen_k);
  if (params.align_to_archetypes && out.chosen_k == traffic::kNumArchetypes) {
    const Span span(&tracer, "ml.align", unit);
    const auto map = ml::align_labels(out.labels, truth,
                                      static_cast<int>(out.chosen_k));
    out.labels = ml::apply_label_map(out.labels, map);
  }
  std::unique_ptr<core::SurrogateExplainer> surrogate;
  {
    const Span span(&tracer, "ml.forest", unit);
    surrogate = std::make_unique<core::SurrogateExplainer>(
        rsca, out.labels, static_cast<int>(out.chosen_k), params.surrogate);
  }
  {
    const Span span(&tracer, "ml.shap", unit);
    out.shap = surrogate->explain(rsca, out.labels, kShapPerCluster);
  }
  {
    const Span span(&tracer, "core.outdoor", unit);
    const core::OutdoorComparison outdoor =
        core::compare_outdoor(scenario, *surrogate, traffic);
    out.outdoor = outdoor.predicted;
    out.distribution = outdoor.distribution;
  }
  out.ari = util::adjusted_rand_index(out.labels, truth);
  out.forest_nodes = count_nodes(surrogate->forest());
  return out;
}

void check_output(Result& result, const StudyOutput& out,
                  const StudyOutput* reference, const char* what) {
  // The cut at the chosen k must give k non-empty clusters labelled 0..k-1.
  std::vector<std::size_t> sizes(kPaperK, 0);
  bool labelled = out.chosen_k == kPaperK && !out.labels.empty();
  for (const int label : out.labels) {
    labelled = labelled && label >= 0 &&
               static_cast<std::size_t>(label) < kPaperK;
    if (labelled) ++sizes[static_cast<std::size_t>(label)];
  }
  for (const std::size_t size : sizes) labelled = labelled && size > 0;
  result.check(labelled, std::string(what) + ": chosen k " +
                             std::to_string(out.chosen_k) +
                             " is not 9 non-empty clusters");
  result.check(out.ari >= kAriFloor, std::string(what) + ": ARI " +
                                         std::to_string(out.ari) +
                                         " below the floor");
  bool bounded = out.sweep.size() == 14;
  for (const auto& p : out.sweep) {
    bounded = bounded && std::isfinite(p.silhouette) && p.silhouette >= -1.0 &&
              p.silhouette <= 1.0 && std::isfinite(p.dunn) && p.dunn >= 0.0;
  }
  result.check(bounded, std::string(what) +
                            ": silhouette outside [-1, 1] or bad Dunn index");
  double share = 0.0;
  for (const double d : out.distribution) share += d;
  result.check(std::fabs(share - 1.0) < 1e-9 && !out.outdoor.empty() &&
                   out.shap.samples_used > 0 &&
                   out.shap.samples_used <= kPaperK * kShapPerCluster,
               std::string(what) + ": outdoor or SHAP summary malformed");
  if (reference != nullptr) {
    result.check(same_bits(out, *reference),
                 std::string(what) + ": output bits differ from the first "
                                     "untraced analysis");
  }
}

}  // namespace

Result run_study(const RunContext& ctx) {
  const Options& options = ctx.options;
  Result result;
  core::PipelineParams params;
  params.scenario.seed = options.seed;
  params.scenario.scale = 1.0;
  // The paper's k, as the library defaults to. core::suggest_k does not pick
  // it at this scale (6 on most seeds: the silhouette peak at k = 6 outweighs
  // the drop after 9), so the sweep's own pick is printed, not checked.
  params.clustering.chosen_k = kPaperK;

  // Set-up: load the dataset; the first build is the one analysed.
  std::vector<double> setups;
  const auto set_up = [&] {
    const double t0 = now_s();
    auto built = std::make_unique<core::Scenario>(
        core::Scenario::build(params.scenario));
    setups.push_back(now_s() - t0);
    return built;
  };
  const std::unique_ptr<core::Scenario> scenario = set_up();
  for (int i = 1; i < kSetupRepeats; ++i) set_up();
  result.row("antennas", static_cast<double>(scenario->num_antennas()),
             "count");
  result.row("outdoor_antennas",
             static_cast<double>(
                 scenario->demand().outdoor_traffic_matrix().rows()),
             "count");

  const double start = now_s();
  std::vector<double> walls, cpus, traced_walls, traced_cpus;
  std::vector<double> residuals;
  StudyOutput reference;
  bool have_reference = false;
  // Another round fits when its expected length still ends within --seconds.
  const auto time_left = [&] {
    double round = median(walls) + kSetupsPerUnit * median(setups);
    if (!traced_walls.empty()) round += median(traced_walls);
    return now_s() - start + round <= options.seconds;
  };
  int unit = 0;
  for (;;) {
    // Untraced unit (every run); the first one is the bit reference.
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    StudyOutput out = analyze(*scenario, params);
    walls.push_back(now_s() - t0);
    cpus.push_back(process_cpu_s() - c0);
    check_output(result, out, have_reference ? &reference : nullptr,
                 "untraced analysis");
    if (!have_reference) {
      reference = std::move(out);
      have_reference = true;
    }
    if (ctx.tracer != nullptr) {
      const double tc0 = process_cpu_s();
      const double tt0 = now_s();
      const StudyOutput traced =
          analyze_traced(*scenario, params, *ctx.tracer, unit);
      const double wall = now_s() - tt0;
      traced_walls.push_back(wall);
      traced_cpus.push_back(process_cpu_s() - tc0);
      residuals.push_back(100.0 *
                          (1.0 - ctx.tracer->top_level_wall(unit) / wall));
      check_output(result, traced, &reference, "traced analysis");
      ++unit;
    }
    for (int i = 0; i < kSetupsPerUnit; ++i) set_up();
    if ((ctx.tracer != nullptr || walls.size() >= kMinUnits) && !time_left()) {
      break;
    }
  }

  result.metric("setup_s", median(setups));
  if (ctx.tracer == nullptr) {
    result.metric("wall_s", median(walls));
    result.metric("cpu_s", median(cpus));
    result.metric("peak_rss_mb", peak_rss_mb());
    result.row("analyses", static_cast<double>(walls.size()), "count");
    result.row("antennas_per_s",
               static_cast<double>(scenario->num_antennas()) / median(walls),
               "1/s");
    result.row("ari_vs_archetypes", reference.ari, "ratio");
    result.row("silhouette_k9", reference.sweep[kPaperK - 2].silhouette,
               "ratio");
    result.row("suggested_k", static_cast<double>(core::suggest_k(reference.sweep)),
               "count");
    return result;
  }

  Tracer& tracer = *ctx.tracer;
  const double traced_wall = median(traced_walls);
  result.metric("trace.wall_ms", 1e3 * traced_wall);
  result.metric("trace.overhead_pct",
                100.0 * (traced_wall - median(walls)) / median(walls));
  result.metric("trace.residual_pct", median(residuals));
  result.metric("traffic.scenario_ms", 1e3 * median(setups));
  double cpu_sum = 0.0, wall_sum = 0.0;
  for (std::size_t i = 0; i < traced_walls.size(); ++i) {
    cpu_sum += traced_cpus[i];
    wall_sum += traced_walls[i];
  }
  result.metric("util.parallelism", cpu_sum / wall_sum);
  result.row("study.residual_pct", median(residuals), "%");
  result.row("tracing_overhead_ms", 1e3 * (traced_wall - median(walls)), "ms");
  for (const char* name : {"core.rsca", "ml.condensed", "ml.ward", "ml.ksweep",
                           "ml.align", "ml.forest", "ml.shap",
                           "core.outdoor"}) {
    std::vector<double> shares;
    for (int u = 0; u < unit; ++u) {
      shares.push_back(100.0 * tracer.wall_of(name, u) /
                       traced_walls[static_cast<std::size_t>(u)]);
    }
    result.metric(std::string(name) + "_pct", median(shares));
    result.row(std::string(name) + "_ms", 1e3 * tracer.wall_of(name) / unit,
               "ms");
    const double wall = tracer.wall_of(name);
    if (std::string(name) != "ml.align") {
      result.metric("util.parallelism." + std::string(name),
                    wall > 0.0 ? tracer.cpu_of(name) / wall : 0.0);
    }
  }
  const double n = static_cast<double>(scenario->num_antennas());
  result.metric("ml.pairs", n * (n - 1.0) / 2.0);
  result.metric("ml.forest_nodes", static_cast<double>(reference.forest_nodes));
  result.metric("ml.shap_rows", static_cast<double>(reference.shap.samples_used));
  result.row("traced_analyses", static_cast<double>(unit), "count");
  return result;
}

}  // namespace perfbench
