#include "util/ascii.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/error.h"
#include "util/table.h"

namespace icn::util {
namespace {

constexpr const char kGreyRamp[] = " .:-=+*#%@";
constexpr std::size_t kGreyLevels = sizeof(kGreyRamp) - 1;

char grey_cell(double v, double lo, double hi) {
  if (hi <= lo) return kGreyRamp[0];
  double t = (v - lo) / (hi - lo);
  t = std::clamp(t, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(t * static_cast<double>(kGreyLevels));
  if (idx >= kGreyLevels) idx = kGreyLevels - 1;
  return kGreyRamp[idx];
}

}  // namespace

std::string render_histogram(const Histogram& h, std::size_t max_bar) {
  std::size_t max_count = 1;
  for (const std::size_t c : h.counts) max_count = std::max(max_count, c);
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double left = h.bin_left(i);
    const double right = left + h.bin_width();
    std::snprintf(buf, sizeof(buf), "[%9.3f, %9.3f) %7zu ", left, right,
                  h.counts[i]);
    out += buf;
    const auto bar = static_cast<std::size_t>(
        std::llround(static_cast<double>(h.counts[i]) /
                     static_cast<double>(max_count) *
                     static_cast<double>(max_bar)));
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

std::string render_bar(double value, double max_value, std::size_t width) {
  if (max_value <= 0.0) return std::string();
  const double t = std::clamp(value / max_value, 0.0, 1.0);
  const auto n = static_cast<std::size_t>(
      std::llround(t * static_cast<double>(width)));
  return std::string(n, '#');
}

std::string render_heatmap(std::span<const double> values, std::size_t rows,
                           std::size_t cols, double lo, double hi) {
  ICN_REQUIRE(values.size() == rows * cols, "heatmap shape");
  std::string out;
  out.reserve(rows * (cols + 1));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out += grey_cell(values[r * cols + c], lo, hi);
    }
    out += '\n';
  }
  return out;
}

std::string render_signed_heatmap(std::span<const double> values,
                                  std::size_t rows, std::size_t cols) {
  ICN_REQUIRE(values.size() == rows * cols, "heatmap shape");
  // index 0..4 for negative magnitudes, 5..8 positive
  static constexpr const char kNeg[] = "@%#*+";  // strong under-utilization
  static constexpr const char kPos[] = "+*#%@";  // strong over-utilization
  std::string out;
  out.reserve(rows * (cols + 1));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = std::clamp(values[r * cols + c], -1.0, 1.0);
      const double mag = std::fabs(v);
      if (mag < 0.1) {
        out += '.';
      } else {
        auto level = static_cast<std::size_t>((mag - 0.1) / 0.9 * 5.0);
        if (level >= 5) level = 4;
        out += (v < 0.0) ? kNeg[4 - level] : kPos[level];
      }
    }
    out += '\n';
  }
  return out;
}

std::string render_sankey(std::vector<SankeyFlow> flows,
                          double min_fraction) {
  double total = 0.0;
  for (const auto& f : flows) {
    ICN_REQUIRE(f.weight >= 0.0, "sankey weight");
    total += f.weight;
  }
  if (total <= 0.0) return std::string();
  // Merge sub-threshold flows per source.
  std::vector<SankeyFlow> kept;
  std::map<std::string, double> other;
  for (auto& f : flows) {
    if (f.weight / total < min_fraction) {
      other[f.source] += f.weight;
    } else {
      kept.push_back(std::move(f));
    }
  }
  for (const auto& [src, w] : other) {
    if (w > 0.0) kept.push_back(SankeyFlow{src, "(other)", w});
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const SankeyFlow& a, const SankeyFlow& b) {
                     if (a.source != b.source) return a.source < b.source;
                     return a.weight > b.weight;
                   });
  std::size_t src_w = 0, dst_w = 0;
  double max_weight = 0.0;
  for (const auto& f : kept) {
    src_w = std::max(src_w, f.source.size());
    dst_w = std::max(dst_w, f.target.size());
    max_weight = std::max(max_weight, f.weight);
  }
  std::string out;
  char buf[64];
  for (const auto& f : kept) {
    out += f.source;
    out.append(src_w - f.source.size(), ' ');
    out += ' ';
    const auto n = static_cast<std::size_t>(
        std::llround(f.weight / max_weight * 30.0));
    out.append(std::max<std::size_t>(n, 1), '=');
    out += "> ";
    out += f.target;
    out.append(dst_w - f.target.size(), ' ');
    std::snprintf(buf, sizeof(buf), "  (%.1f%%)", f.weight / total * 100.0);
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace icn::util
