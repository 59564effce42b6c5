#include "ml/distance.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/parallel.h"
#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define ICN_ML_X86 1
#include <immintrin.h>
#endif

namespace icn::ml {

// All kernels accumulate in the same canonical 4-lane order: lane k sums the
// elements i == k (mod 4), the lanes combine as (s0 + s2) + (s1 + s3), and
// the remaining 0-3 tail elements add sequentially. Fixing one order —
// instead of matching whatever a serial loop would do — is what lets the
// AVX2 lane and the scalar build produce the same bits.

namespace detail {

double squared_euclidean_scalar(const double* a, const double* b,
                                std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double acc = (s0 + s2) + (s1 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void squared_euclidean_x4_scalar(const double* a, const double* b,
                                 std::size_t stride, std::size_t n,
                                 double out[4]) {
  for (int r = 0; r < 4; ++r) {
    out[r] = squared_euclidean_scalar(a, b + static_cast<std::size_t>(r) * stride, n);
  }
}

#if defined(ICN_ML_X86)

__attribute__((target("avx2"))) double squared_euclidean_avx2(const double* a,
                                                              const double* b,
                                                              std::size_t n) {
  __m256d acc = _mm256_setzero_pd();  // lane k = class k (mod 4)
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  double total = (s[0] + s[2]) + (s[1] + s[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

// ---- x4 row-batched kernel ----------------------------------------------
//
// One query row against four consecutive matrix rows, with four independent
// accumulator chains. The single-accumulator kernels are bound by the
// 4-cycle add latency of the accumulate (one vector add per loaded vector);
// four chains give the out-of-order core four adds in flight, which is where
// the condensed-distance speedup comes from. Each chain runs exactly the
// canonical order, so out[r] is byte-identical to the single-pair kernel.

__attribute__((target("avx2"))) void squared_euclidean_x4_avx2(
    const double* a, const double* b, std::size_t stride, std::size_t n,
    double out[4]) {
  __m256d acc[4];
  for (int r = 0; r < 4; ++r) acc[r] = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_loadu_pd(a + i);
    for (int r = 0; r < 4; ++r) {
      const __m256d d = _mm256_sub_pd(
          av, _mm256_loadu_pd(b + static_cast<std::size_t>(r) * stride + i));
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(d, d));
    }
  }
  for (int r = 0; r < 4; ++r) {
    const double* br = b + static_cast<std::size_t>(r) * stride;
    alignas(32) double s[4];
    _mm256_store_pd(s, acc[r]);
    double total = (s[0] + s[2]) + (s[1] + s[3]);
    for (std::size_t t = i; t < n; ++t) {
      const double d = a[t] - br[t];
      total += d * d;
    }
    out[r] = total;
  }
}

#else  // !ICN_ML_X86

// Non-x86 builds: the avx2 entries alias the scalar kernels — dispatch still
// works, and ICN_SIMD=avx2 is rejected by util::simd_level().
double squared_euclidean_avx2(const double* a, const double* b,
                              std::size_t n) {
  return squared_euclidean_scalar(a, b, n);
}
void squared_euclidean_x4_avx2(const double* a, const double* b,
                               std::size_t stride, std::size_t n,
                               double out[4]) {
  squared_euclidean_x4_scalar(a, b, stride, n, out);
}

#endif  // ICN_ML_X86

}  // namespace detail

double squared_euclidean(std::span<const double> a,
                         std::span<const double> b) {
  ICN_REQUIRE(a.size() == b.size(), "distance dimensions");
  static const auto kernel = icn::util::pick_kernel(
      detail::squared_euclidean_scalar, detail::squared_euclidean_avx2);
  return kernel(a.data(), b.data(), a.size());
}

double euclidean(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_euclidean(a, b));
}

double vector_sum(std::span<const double> xs) {
  const std::size_t n = xs.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += xs[i];
    s1 += xs[i + 1];
    s2 += xs[i + 2];
    s3 += xs[i + 3];
  }
  double acc = (s0 + s2) + (s1 + s3);
  for (; i < n; ++i) acc += xs[i];
  return acc;
}

namespace {

/// out[j - j0] = squared Euclidean distance from row `ri` to row j of `base`
/// (m doubles a row), or its square root unless `squared`, for j in
/// [j0, j1): the per-row pair loop of fill_condensed and fill_distance_rows.
/// Four consecutive columns share one pass over row `ri` via the x4 kernel
/// (independent accumulator chains); each output is byte-identical to the
/// single-pair kernel, so the grouping never decides a bit.
void pair_run(const double* ri, const double* base, std::size_t m,
              std::size_t j0, std::size_t j1, bool squared, double* out) {
  static const auto kernel_x4 = icn::util::pick_kernel(
      detail::squared_euclidean_x4_scalar, detail::squared_euclidean_x4_avx2);
  static const auto kernel = icn::util::pick_kernel(
      detail::squared_euclidean_scalar, detail::squared_euclidean_avx2);
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    double q[4];
    kernel_x4(ri, base + j * m, m, m, q);
    double* o = out + (j - j0);
    if (squared) {
      o[0] = q[0];
      o[1] = q[1];
      o[2] = q[2];
      o[3] = q[3];
    } else {
      // sqrt is correctly rounded, so taking it here (instead of inside each
      // kernel) cannot change bits.
      o[0] = std::sqrt(q[0]);
      o[1] = std::sqrt(q[1]);
      o[2] = std::sqrt(q[2]);
      o[3] = std::sqrt(q[3]);
    }
  }
  for (; j < j1; ++j) {
    const double q = kernel(ri, base + j * m, m);
    out[j - j0] = squared ? q : std::sqrt(q);
  }
}

}  // namespace

void fill_condensed(const Matrix& x, bool squared, std::span<double> out,
                    std::size_t tile) {
  const std::size_t n = x.rows();
  const std::size_t m = x.cols();
  ICN_REQUIRE(tile >= 1, "fill_condensed tile must be >= 1");
  ICN_REQUIRE(out.size() == n * (n - 1) / 2, "fill_condensed output length");
  if (n < 2) return;
  const double* base = x.data().data();
  double* d = out.data();
  const auto index = [n](std::size_t i, std::size_t j) {
    return i * n - i * (i + 1) / 2 + (j - i - 1);
  };
  // Row panels of `tile` rows, column tiles on absolute multiples of `tile`:
  // both are pure functions of (n, tile), and every pair value is a pure
  // function of rows (i, j), so blocking and scheduling decide only the
  // iteration order — the filled buffer is byte-identical for every tile
  // size and thread count. Grain 1 over panels: the diagonal panels carry
  // less work than the top ones (shrinking triangle rows), and the stealing
  // pool rebalances whole panels.
  const std::size_t panels = (n + tile - 1) / tile;
  icn::util::parallel_for(
      0, panels, 1, [&](std::size_t plo, std::size_t phi) {
        for (std::size_t p = plo; p < phi; ++p) {
          const std::size_t r0 = p * tile;
          const std::size_t r1 = std::min(r0 + tile, n);
          for (std::size_t t = p; t < panels; ++t) {
            const std::size_t c0 = t * tile;
            const std::size_t c1 = std::min(c0 + tile, n);
            for (std::size_t i = r0; i < r1; ++i) {
              // Row i's first stored pair is (i, i+1); pair (i, j) sits
              // j - (i+1) slots after it.
              const std::size_t j0 = std::max(i + 1, c0);
              if (j0 < c1) {
                pair_run(base + i * m, base, m, j0, c1, squared,
                         d + index(i, i + 1) + (j0 - i - 1));
              }
            }
          }
        }
      });
}

void fill_distance_rows(const Matrix& x, std::size_t lo, std::size_t hi,
                        std::span<double> out) {
  const std::size_t n = x.rows();
  const std::size_t m = x.cols();
  ICN_REQUIRE(lo <= hi && hi <= n, "fill_distance_rows row range");
  ICN_REQUIRE(out.size() == (hi - lo) * n,
              "fill_distance_rows output length");
  const double* base = x.data().data();
  // Column tiles as in fill_condensed: one tile of rows stays cache-resident
  // while every row of [lo, hi) passes over it.
  for (std::size_t c0 = 0; c0 < n; c0 += kDefaultDistanceTile) {
    const std::size_t c1 = std::min(c0 + kDefaultDistanceTile, n);
    for (std::size_t i = lo; i < hi; ++i) {
      pair_run(base + i * m, base, m, c0, c1, /*squared=*/false,
               out.data() + (i - lo) * n + c0);
    }
  }
  for (std::size_t i = lo; i < hi; ++i) out[(i - lo) * n + i] = 0.0;
}

CondensedDistances::CondensedDistances(const Matrix& x, std::size_t tile)
    : n_(x.rows()) {
  ICN_REQUIRE(n_ >= 1, "CondensedDistances needs >= 1 point");
  d_.resize(n_ * (n_ - 1) / 2);
  fill_condensed(x, /*squared=*/false, d_, tile);
}

}  // namespace icn::ml
