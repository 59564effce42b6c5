#include "ml/linkage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>

#include "ml/distance.h"
#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// Chunk size of the parallel nearest-neighbour scans. Fixed (independent of
/// the thread count) so the chunk decomposition — and with it every
/// floating-point fold — is reproducible on any machine.
constexpr std::size_t kScanGrain = 256;

/// Winner of a nearest-neighbour scan: smallest distance, earliest index on
/// ties (matching the serial strict-< scan).
struct BestNeighbour {
  double d = std::numeric_limits<double>::infinity();
  std::size_t b = static_cast<std::size_t>(-1);
};

/// Disjoint-set over leaves, tracking the smallest leaf index per component.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), min_leaf_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
    std::iota(min_leaf_.begin(), min_leaf_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Unites the two components; returns the new root.
  std::size_t unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    ICN_REQUIRE(a != b, "unite of same component");
    parent_[b] = a;
    min_leaf_[a] = std::min(min_leaf_[a], min_leaf_[b]);
    return a;
  }

  std::size_t min_leaf(std::size_t x) { return min_leaf_[find(x)]; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> min_leaf_;
};

/// Lance-Williams update for stored-distance linkages.
double lw_update(Linkage linkage, double dak, double dbk, double dab,
                 double sa, double sb, double sk) {
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(dak, dbk);
    case Linkage::kComplete:
      return std::max(dak, dbk);
    case Linkage::kAverage:
      return (sa * dak + sb * dbk) / (sa + sb);
    case Linkage::kWard: {
      // Operates on squared distances.
      const double t = sa + sb + sk;
      return ((sa + sk) * dak + (sb + sk) * dbk - sk * dab) / t;
    }
  }
  ICN_REQUIRE(false, "unknown linkage");
  return 0.0;  // unreachable
}

/// Mutable condensed distance matrix over cluster slots 0..n-1.
class WorkingDistances {
 public:
  WorkingDistances(const Matrix& x, bool squared) : n_(x.rows()) {
    d_.resize(n_ * (n_ - 1) / 2);
    // Shared cache-blocked fill (ml/distance.h): byte-identical to the old
    // row-by-row loop at every tile size and thread count.
    fill_condensed(x, squared, d_);
  }

  double get(std::size_t i, std::size_t j) const {
    ICN_REQUIRE(i != j, "self distance");
    if (i > j) std::swap(i, j);
    return d_[index(i, j)];
  }

  void set(std::size_t i, std::size_t j, double v) {
    ICN_REQUIRE(i != j, "self distance");
    if (i > j) std::swap(i, j);
    d_[index(i, j)] = v;
  }

 private:
  std::size_t n_;
  std::vector<double> d_;

  std::size_t index(std::size_t i, std::size_t j) const {
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }
};

/// Ward merge height from cluster sizes and centroid distance (SciPy
/// convention: two singletons merge at their Euclidean distance).
double ward_height_sq(double sa, double sb, double centroid_dist_sq) {
  return 2.0 * sa * sb / (sa + sb) * centroid_dist_sq;
}

/// NN-chain with centroid-based Ward distances; O(N*M) memory.
std::vector<Dendrogram::RawMerge> ward_nn_chain(const Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t m = x.cols();
  std::vector<double> centroid(x.data().begin(), x.data().end());
  std::vector<double> size(n, 1.0);
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::vector<Dendrogram::RawMerge> raw;
  raw.reserve(n - 1);

  auto ward_d2 = [&](std::size_t a, std::size_t b) {
    // Dispatched kernel (scalar/AVX2); both lanes accumulate in the
    // canonical order, so the chain's merge decisions are the same at either
    // ICN_SIMD level.
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
    // Nearest alive neighbour of a, preferring prev on ties so the chain
    // terminates deterministically. The scan is the O(N * M) hot loop of the
    // chain: chunks scan disjoint slot ranges and the chunk winners fold in
    // slot order, reproducing the serial strict-< scan exactly.
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
  return raw;
}

/// NN-chain on a stored (condensed) distance matrix with Lance-Williams
/// updates; used for complete/average/single.
std::vector<Dendrogram::RawMerge> matrix_nn_chain(const Matrix& x,
                                                  Linkage linkage) {
  const std::size_t n = x.rows();
  WorkingDistances dist(x, /*squared=*/false);
  std::vector<double> size(n, 1.0);
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> chain;
  std::vector<Dendrogram::RawMerge> raw;
  raw.reserve(n - 1);

  std::size_t remaining = n;
  std::size_t scan_start = 0;
  while (remaining > 1) {
    if (chain.empty()) {
      while (!alive[scan_start]) ++scan_start;
      chain.push_back(scan_start);
    }
    const std::size_t a = chain.back();
    const std::size_t prev =
        chain.size() >= 2 ? chain[chain.size() - 2] : static_cast<std::size_t>(-1);
    std::size_t best = static_cast<std::size_t>(-1);
    double best_d = std::numeric_limits<double>::infinity();
    if (prev != static_cast<std::size_t>(-1)) {
      best = prev;
      best_d = dist.get(a, prev);
    }
    // O(1) distance lookups per slot: a coarser grain than the Ward scan
    // keeps the chunk dispatch cheaper than the work it covers.
    const BestNeighbour nn = icn::util::parallel_reduce(
        std::size_t{0}, n, 4 * kScanGrain, BestNeighbour{},
        [&](std::size_t lo, std::size_t hi) {
          BestNeighbour win;
          for (std::size_t b = lo; b < hi; ++b) {
            if (!alive[b] || b == a || b == prev) continue;
            const double d = dist.get(a, b);
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
      chain.pop_back();
      chain.pop_back();
      raw.push_back(Dendrogram::RawMerge{rep[a], rep[prev], best_d});
      const double dab = best_d;
      for (std::size_t k = 0; k < n; ++k) {
        if (!alive[k] || k == a || k == prev) continue;
        const double dak = dist.get(a, k);
        const double dbk = dist.get(prev, k);
        dist.set(a, k,
                 lw_update(linkage, dak, dbk, dab, size[a], size[prev],
                           size[k]));
      }
      size[a] += size[prev];
      rep[a] = std::min(rep[a], rep[prev]);
      alive[prev] = false;
      --remaining;
    } else {
      chain.push_back(best);
    }
  }
  return raw;
}

}  // namespace

const char* linkage_name(Linkage l) {
  switch (l) {
    case Linkage::kWard:
      return "ward";
    case Linkage::kComplete:
      return "complete";
    case Linkage::kAverage:
      return "average";
    case Linkage::kSingle:
      return "single";
  }
  return "?";
}

Dendrogram::Dendrogram(std::size_t num_leaves, std::vector<RawMerge> raw)
    : num_leaves_(num_leaves) {
  ICN_REQUIRE(num_leaves >= 1, "dendrogram needs leaves");
  ICN_REQUIRE(raw.size() == num_leaves - 1, "dendrogram needs N-1 merges");
  std::stable_sort(raw.begin(), raw.end(),
                   [](const RawMerge& a, const RawMerge& b) {
                     return a.height < b.height;
                   });
  // Assign SciPy-style node ids in height order.
  UnionFind uf(num_leaves);
  std::vector<std::size_t> node_id(num_leaves);
  std::vector<std::size_t> node_size(num_leaves, 1);
  std::iota(node_id.begin(), node_id.end(), std::size_t{0});
  merges_.reserve(raw.size());
  for (std::size_t t = 0; t < raw.size(); ++t) {
    const std::size_t ra = uf.find(raw[t].rep_a);
    const std::size_t rb = uf.find(raw[t].rep_b);
    ICN_REQUIRE(ra != rb, "raw merges must form a tree");
    Merge m;
    m.left = node_id[ra];
    m.right = node_id[rb];
    if (m.left > m.right) std::swap(m.left, m.right);
    m.height = raw[t].height;
    m.size = node_size[ra] + node_size[rb];
    const std::size_t root = uf.unite(ra, rb);
    node_id[root] = num_leaves_ + t;
    node_size[root] = m.size;
    merges_.push_back(m);
  }
}

std::vector<int> Dendrogram::cut(std::size_t k) const {
  ICN_REQUIRE(k >= 1 && k <= num_leaves_, "cut k in [1, N]");
  UnionFind uf(num_leaves_);
  // Re-derive leaf representatives for the height-ordered merges: every node
  // id >= N corresponds to merge id - N; walk down to any leaf.
  auto leaf_of = [&](std::size_t node) {
    while (node >= num_leaves_) node = merges_[node - num_leaves_].left;
    return node;
  };
  const std::size_t steps = num_leaves_ - k;
  for (std::size_t t = 0; t < steps; ++t) {
    uf.unite(leaf_of(merges_[t].left), leaf_of(merges_[t].right));
  }
  // Deterministic labels: order components by their smallest leaf index.
  std::vector<int> labels(num_leaves_, -1);
  int next = 0;
  std::vector<int> root_label(num_leaves_, -1);
  for (std::size_t i = 0; i < num_leaves_; ++i) {
    const std::size_t r = uf.find(i);
    if (root_label[r] < 0) root_label[r] = next++;
    labels[i] = root_label[r];
  }
  ICN_REQUIRE(static_cast<std::size_t>(next) == k, "cut produced wrong k");
  return labels;
}

double Dendrogram::cut_height(std::size_t k) const {
  ICN_REQUIRE(k >= 2 && k <= num_leaves_, "cut_height k in [2, N]");
  return merges_[num_leaves_ - k].height;
}

std::string Dendrogram::render(std::size_t max_depth) const {
  if (merges_.empty()) return "(single leaf)\n";
  std::string out;
  char buf[128];
  // Recursive print from the root (last merge).
  auto print_node = [&](auto&& self, std::size_t node, std::size_t depth,
                        const std::string& prefix) -> void {
    if (node < num_leaves_) {
      std::snprintf(buf, sizeof(buf), "%sleaf %zu\n", prefix.c_str(), node);
      out += buf;
      return;
    }
    const Merge& m = merges_[node - num_leaves_];
    std::snprintf(buf, sizeof(buf), "%s+- h=%.3f n=%zu\n", prefix.c_str(),
                  m.height, m.size);
    out += buf;
    if (depth + 1 >= max_depth) {
      return;
    }
    self(self, m.right, depth + 1, prefix + "|  ");
    self(self, m.left, depth + 1, prefix + "|  ");
  };
  print_node(print_node, num_leaves_ + merges_.size() - 1, 0, "");
  return out;
}

Dendrogram agglomerative_cluster(const Matrix& x, Linkage linkage) {
  ICN_REQUIRE(x.rows() >= 1 && x.cols() >= 1, "clustering input shape");
  if (x.rows() == 1) return Dendrogram(1, {});
  if (linkage == Linkage::kWard) {
    return Dendrogram(x.rows(), ward_nn_chain(x));
  }
  return Dendrogram(x.rows(), matrix_nn_chain(x, linkage));
}

std::vector<float> cophenetic_distances(const Dendrogram& tree) {
  const std::size_t n = tree.num_leaves();
  ICN_REQUIRE(n >= 2, "cophenetic distances need >= 2 leaves");
  std::vector<float> d(n * (n - 1) / 2, 0.0f);
  auto index = [n](std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    return i * n - i * (i + 1) / 2 + (j - i - 1);
  };
  // Walk the height-ordered merges, holding explicit member lists; every
  // cross pair of a merge gets that merge's height. Each pair is written
  // exactly once, so the total work is O(n^2).
  std::vector<std::vector<std::uint32_t>> members(n);
  std::vector<std::size_t> node_of_leaf(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[i] = {static_cast<std::uint32_t>(i)};
    node_of_leaf[i] = i;
  }
  // Component slot per dendrogram node id.
  std::vector<std::size_t> slot(n + tree.merges().size());
  for (std::size_t i = 0; i < n; ++i) slot[i] = i;
  for (std::size_t t = 0; t < tree.merges().size(); ++t) {
    const Merge& m = tree.merges()[t];
    std::size_t sa = slot[m.left];
    std::size_t sb = slot[m.right];
    if (members[sa].size() < members[sb].size()) std::swap(sa, sb);
    for (const std::uint32_t a : members[sa]) {
      for (const std::uint32_t b : members[sb]) {
        d[index(a, b)] = static_cast<float>(m.height);
      }
    }
    members[sa].insert(members[sa].end(), members[sb].begin(),
                       members[sb].end());
    members[sb].clear();
    members[sb].shrink_to_fit();
    slot[n + t] = sa;
  }
  return d;
}

double cophenetic_correlation(const Dendrogram& tree, const Matrix& x) {
  ICN_REQUIRE(x.rows() == tree.num_leaves() && x.rows() >= 2,
              "cophenetic correlation input");
  const auto coph = cophenetic_distances(tree);
  // Streaming Pearson against the original pairwise distances, reduced over
  // row chunks of the upper triangle. Row i owns the condensed slice
  // starting at i*n - i*(i+1)/2, so chunks touch disjoint pairs and the
  // partials fold left-to-right — the result depends only on the grain,
  // never on the thread count.
  struct PearsonSums {
    double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  };
  const std::size_t n = x.rows();
  const auto sums = icn::util::parallel_reduce(
      std::size_t{0}, n, 4, PearsonSums{},
      [&](std::size_t lo, std::size_t hi) {
        PearsonSums p;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto ri = x.row(i);
          std::size_t idx = i * n - i * (i + 1) / 2;
          for (std::size_t j = i + 1; j < n; ++j, ++idx) {
            const double a = euclidean(ri, x.row(j));
            const double b = static_cast<double>(coph[idx]);
            p.sx += a;
            p.sy += b;
            p.sxx += a * a;
            p.syy += b * b;
            p.sxy += a * b;
          }
        }
        return p;
      },
      [](PearsonSums acc, PearsonSums p) {
        acc.sx += p.sx;
        acc.sy += p.sy;
        acc.sxx += p.sxx;
        acc.syy += p.syy;
        acc.sxy += p.sxy;
        return acc;
      });
  const double count = static_cast<double>(coph.size());
  const double cov = sums.sxy - sums.sx * sums.sy / count;
  const double va = sums.sxx - sums.sx * sums.sx / count;
  const double vb = sums.syy - sums.sy * sums.sy / count;
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

Dendrogram naive_agglomerative(const Matrix& x, Linkage linkage) {
  ICN_REQUIRE(x.rows() >= 1 && x.cols() >= 1, "clustering input shape");
  const std::size_t n = x.rows();
  if (n == 1) return Dendrogram(1, {});
  const bool squared = linkage == Linkage::kWard;
  WorkingDistances dist(x, squared);
  std::vector<double> size(n, 1.0);
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});
  std::vector<bool> alive(n, true);
  std::vector<Dendrogram::RawMerge> raw;
  raw.reserve(n - 1);
  // Winner of the naive O(N^2) argmin scan: smallest distance, row-major
  // earliest pair on ties — exactly what the serial strict-< scan picks.
  struct BestPair {
    double d = std::numeric_limits<double>::infinity();
    std::size_t i = 0, j = 0;
  };
  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Chunks scan disjoint row ranges; partials fold in chunk order with
    // strict <, so earlier rows win ties and the result matches the serial
    // scan for every thread count and grain.
    const BestPair win = icn::util::parallel_reduce(
        std::size_t{0}, n, kScanGrain, BestPair{},
        [&](std::size_t lo, std::size_t hi) {
          BestPair p;
          for (std::size_t i = lo; i < hi; ++i) {
            if (!alive[i]) continue;
            for (std::size_t j = i + 1; j < n; ++j) {
              if (!alive[j]) continue;
              const double d = dist.get(i, j);
              if (d < p.d) {
                p.d = d;
                p.i = i;
                p.j = j;
              }
            }
          }
          return p;
        },
        [](BestPair acc, BestPair p) { return p.d < acc.d ? p : acc; });
    const std::size_t ba = win.i, bb = win.j;
    const double best = win.d;
    raw.push_back(Dendrogram::RawMerge{rep[ba], rep[bb],
                                       squared ? std::sqrt(best) : best});
    for (std::size_t k = 0; k < n; ++k) {
      if (!alive[k] || k == ba || k == bb) continue;
      dist.set(ba, k,
               lw_update(linkage, dist.get(ba, k), dist.get(bb, k), best,
                         size[ba], size[bb], size[k]));
    }
    size[ba] += size[bb];
    rep[ba] = std::min(rep[ba], rep[bb]);
    alive[bb] = false;
  }
  return Dendrogram(n, std::move(raw));
}

}  // namespace icn::ml
