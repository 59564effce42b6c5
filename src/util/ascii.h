// ASCII renderers for the paper's figures.
//
// The benches print every figure both as numeric rows (for comparison with
// the paper) and as an ASCII rendering (heatmap / histogram / bar chart /
// Sankey) so the qualitative shape is visible directly in terminal output.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/stats.h"

namespace icn::util {

/// Renders a histogram as horizontal bars, one line per bin:
///   [lo, hi)  count  ########
[[nodiscard]] std::string render_histogram(const Histogram& h,
                                           std::size_t max_bar = 50);

/// Renders one horizontal bar scaled so that `value == max_value` gives
/// `width` filled cells.
[[nodiscard]] std::string render_bar(double value, double max_value,
                                     std::size_t width = 40);

/// Renders a matrix as an ASCII heatmap using a 10-level grey ramp
/// " .:-=+*#%@", mapping [lo, hi] -> ramp. One text row per matrix row.
/// `values` is row-major with `cols` columns.
[[nodiscard]] std::string render_heatmap(std::span<const double> values,
                                         std::size_t rows, std::size_t cols,
                                         double lo, double hi);

/// Like render_heatmap but for signed data in [-1, 1]: negative values render
/// with 'o.- ' shades and positive with ' +*#@' shades, matching the paper's
/// red/blue RSCA colormap semantics (blue = over-utilization = '#'-like).
[[nodiscard]] std::string render_signed_heatmap(std::span<const double> values,
                                                std::size_t rows,
                                                std::size_t cols);

/// One flow of a Sankey diagram (Fig. 6): source -> target with weight.
struct SankeyFlow {
  std::string source;
  std::string target;
  double weight = 0.0;
};

/// Renders Sankey flows as "source =====> target (weight)" lines, bar width
/// proportional to weight; flows below min_fraction of the total are merged
/// into an "(other)" line per source.
[[nodiscard]] std::string render_sankey(std::vector<SankeyFlow> flows,
                                        double min_fraction = 0.01);

}  // namespace icn::util
