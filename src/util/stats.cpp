#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "util/error.h"

namespace icn::util {

double mean(std::span<const double> xs) {
  ICN_REQUIRE(!xs.empty(), "mean of empty range");
  return sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  ICN_REQUIRE(!xs.empty(), "variance of empty range");
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  ICN_REQUIRE(!xs.empty(), "quantile of empty range");
  std::vector<double> sorted(xs.begin(), xs.end());
  return quantile_inplace(sorted, q);
}

double quantile_inplace(std::span<double> xs, double q) {
  ICN_REQUIRE(!xs.empty(), "quantile of empty range");
  ICN_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q in [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median_inplace(std::span<double> xs) {
  return quantile_inplace(xs, 0.5);
}

double min_value(std::span<const double> xs) {
  ICN_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  ICN_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double sum(std::span<const double> xs) {
  double acc = 0.0, comp = 0.0;  // Kahan compensation
  for (const double x : xs) {
    const double y = x - comp;
    const double t = acc + y;
    comp = (t - acc) - y;
    acc = t;
  }
  return acc;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  ICN_REQUIRE(xs.size() == ys.size() && !xs.empty(), "pearson sizes");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double Histogram::bin_left(std::size_t i) const {
  return lo + static_cast<double>(i) * bin_width();
}

double Histogram::bin_width() const {
  return counts.empty() ? 0.0 : (hi - lo) / static_cast<double>(counts.size());
}

Histogram make_histogram(std::span<const double> xs, double lo, double hi,
                         std::size_t bins) {
  ICN_REQUIRE(bins > 0, "histogram bins");
  ICN_REQUIRE(lo < hi, "histogram range");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (const double x : xs) {
    double idx = (x - lo) / width;
    if (idx < 0.0) idx = 0.0;
    auto bin = static_cast<std::size_t>(idx);
    if (bin >= bins) bin = bins - 1;
    ++h.counts[bin];
  }
  return h;
}

double adjusted_rand_index(std::span<const int> a, std::span<const int> b) {
  ICN_REQUIRE(a.size() == b.size() && !a.empty(), "ARI sizes");
  std::map<std::pair<int, int>, double> contingency;
  std::map<int, double> rows, cols;
  for (std::size_t i = 0; i < a.size(); ++i) {
    contingency[{a[i], b[i]}] += 1.0;
    rows[a[i]] += 1.0;
    cols[b[i]] += 1.0;
  }
  auto choose2 = [](double n) { return n * (n - 1.0) / 2.0; };
  double sum_ij = 0.0, sum_a = 0.0, sum_b = 0.0;
  for (const auto& [key, n] : contingency) sum_ij += choose2(n);
  for (const auto& [key, n] : rows) sum_a += choose2(n);
  for (const auto& [key, n] : cols) sum_b += choose2(n);
  const double total = choose2(static_cast<double>(a.size()));
  const double expected = sum_a * sum_b / total;
  const double max_index = 0.5 * (sum_a + sum_b);
  if (max_index == expected) return 1.0;  // both partitions trivial
  return (sum_ij - expected) / (max_index - expected);
}

}  // namespace icn::util
