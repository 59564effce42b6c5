#include "reference_linkage.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "ml/distance.h"
#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml::reference {
namespace {

/// Chunk size of the parallel nearest-neighbour scans.
constexpr std::size_t kScanGrain = 256;

/// Winner of a nearest-neighbour scan: smallest distance, earliest index on
/// ties (matching the serial strict-< scan).
struct BestNeighbour {
  double d = std::numeric_limits<double>::infinity();
  std::size_t b = static_cast<std::size_t>(-1);
};

/// Ward merge height from cluster sizes and centroid distance (SciPy
/// convention: two singletons merge at their Euclidean distance).
double ward_height_sq(double sa, double sb, double centroid_dist_sq) {
  return 2.0 * sa * sb / (sa + sb) * centroid_dist_sq;
}

}  // namespace

Dendrogram ward_slot_scan(const Matrix& x) {
  ICN_REQUIRE(x.rows() >= 1 && x.cols() >= 1, "clustering input shape");
  const std::size_t n = x.rows();
  if (n == 1) return Dendrogram(1, {});
  const std::size_t m = x.cols();
  std::vector<double> centroid(x.data().begin(), x.data().end());
  std::vector<double> size(n, 1.0);
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> chain;
  std::vector<Dendrogram::RawMerge> raw;

  auto ward_d2 = [&](std::size_t a, std::size_t b) {
    const double cd = squared_euclidean({centroid.data() + a * m, m},
                                        {centroid.data() + b * m, m});
    return ward_height_sq(size[a], size[b], cd);
  };

  std::size_t remaining = n;
  std::size_t scan_start = 0;  // first possibly-alive slot
  while (remaining > 1) {
    if (chain.empty()) {
      while (!alive[scan_start]) ++scan_start;
      chain.push_back(scan_start);
    }
    const std::size_t a = chain.back();
    const std::size_t prev =
        chain.size() >= 2 ? chain[chain.size() - 2] : static_cast<std::size_t>(-1);
    // Nearest alive neighbour of a, preferring prev on ties; chunks scan
    // disjoint slot ranges and their winners fold in slot order.
    std::size_t best = static_cast<std::size_t>(-1);
    double best_d = std::numeric_limits<double>::infinity();
    if (prev != static_cast<std::size_t>(-1)) {
      best = prev;
      best_d = ward_d2(a, prev);
    }
    const BestNeighbour nn = icn::util::parallel_reduce(
        std::size_t{0}, n, kScanGrain, BestNeighbour{},
        [&](std::size_t lo, std::size_t hi) {
          BestNeighbour win;
          for (std::size_t b = lo; b < hi; ++b) {
            if (!alive[b] || b == a || b == prev) continue;
            const double d = ward_d2(a, b);
            if (d < win.d) {
              win.d = d;
              win.b = b;
            }
          }
          return win;
        },
        [](BestNeighbour acc, BestNeighbour win) {
          return win.d < acc.d ? win : acc;
        });
    if (nn.d < best_d) {
      best_d = nn.d;
      best = nn.b;
    }
    if (best == prev) {
      // Reciprocal nearest neighbours: merge a and prev.
      chain.pop_back();
      chain.pop_back();
      raw.push_back(Dendrogram::RawMerge{rep[a], rep[prev],
                                         std::sqrt(best_d)});
      const double sa = size[a];
      const double sb = size[prev];
      double* ca = centroid.data() + a * m;
      const double* cb = centroid.data() + prev * m;
      for (std::size_t f = 0; f < m; ++f) {
        ca[f] = (sa * ca[f] + sb * cb[f]) / (sa + sb);
      }
      size[a] = sa + sb;
      rep[a] = std::min(rep[a], rep[prev]);
      alive[prev] = false;
      --remaining;
    } else {
      chain.push_back(best);
    }
  }
  return Dendrogram(n, std::move(raw));
}

}  // namespace icn::ml::reference
