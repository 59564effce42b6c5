#include "ml/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace icn::ml {

std::vector<std::size_t> hungarian_min_cost(const Matrix& cost) {
  const std::size_t n = cost.rows();
  ICN_REQUIRE(n >= 1 && cost.cols() == n, "hungarian: square matrix");
  for (const double c : cost.data()) {
    ICN_REQUIRE(std::isfinite(c), "hungarian: finite costs");
  }
  // Classic O(n^3) potentials formulation (1-indexed internal arrays).
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0), way(n + 1, 0);
  // Augmenting-search preprocessing: seed the duals with the classic
  // row/column reduction. u[i] = row minimum and v[j] = column minimum of
  // the row-reduced matrix is equivalent to running the algorithm on
  // cost(i,j) - u[i] - v[j] (every reduced-cost evaluation below already
  // subtracts both), which shifts rows/columns by constants and so preserves
  // the optimal assignments while starting the searches with a zero in every
  // row and column.
  for (std::size_t i = 0; i < n; ++i) {
    double m = cost(i, 0);
    for (std::size_t j = 1; j < n; ++j) m = std::min(m, cost(i, j));
    u[i + 1] = m;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double m = cost(0, j) - u[1];
    for (std::size_t i = 1; i < n; ++i) {
      m = std::min(m, cost(i, j) - u[i + 1]);
    }
    v[j + 1] = m;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      // The reduced-cost scan: strict < keeps the earliest column on ties.
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<std::size_t> assign(n);
  for (std::size_t j = 1; j <= n; ++j) assign[p[j] - 1] = j - 1;
  return assign;
}

std::vector<int> align_labels(std::span<const int> from,
                              std::span<const int> to, int k) {
  ICN_REQUIRE(from.size() == to.size() && !from.empty(), "align sizes");
  ICN_REQUIRE(k >= 1, "align k");
  const auto uk = static_cast<std::size_t>(k);
  Matrix overlap(uk, uk);
  for (std::size_t i = 0; i < from.size(); ++i) {
    ICN_REQUIRE(from[i] >= 0 && from[i] < k, "align from label");
    ICN_REQUIRE(to[i] >= 0 && to[i] < k, "align to label");
    overlap(static_cast<std::size_t>(from[i]),
            static_cast<std::size_t>(to[i])) += 1.0;
  }
  // Maximize overlap == minimize (max - overlap).
  double max_entry = 0.0;
  for (const double o : overlap.data()) max_entry = std::max(max_entry, o);
  Matrix cost(uk, uk);
  for (std::size_t r = 0; r < uk; ++r) {
    for (std::size_t c = 0; c < uk; ++c) {
      cost(r, c) = max_entry - overlap(r, c);
    }
  }
  const auto assign = hungarian_min_cost(cost);
  std::vector<int> map(uk);
  for (std::size_t r = 0; r < uk; ++r) map[r] = static_cast<int>(assign[r]);
  return map;
}

std::vector<int> apply_label_map(std::span<const int> labels,
                                 std::span<const int> map) {
  std::vector<int> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ICN_REQUIRE(labels[i] >= 0 &&
                    static_cast<std::size_t>(labels[i]) < map.size(),
                "apply_label_map label range");
    out[i] = map[static_cast<std::size_t>(labels[i])];
  }
  return out;
}

}  // namespace icn::ml
