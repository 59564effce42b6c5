#include "ml/kernels.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define ICN_ML_X86 1
#include <immintrin.h>
#endif

namespace icn::ml {
namespace detail {

// ---- RSCA transform (element-wise) --------------------------------------
//
// Every output element is a fixed IEEE expression of (t[j], s[j], total), so
// the scalar and vector kernels agree bit-for-bit by construction; the lane
// suites in tests/ml assert it anyway. The `s > 0 ? r : 0.0` select is an
// AND with the comparison mask: the masked-out value is +0.0, exactly the
// scalar literal.

void rsca_row_scalar(const double* t, const double* s, double total,
                     std::size_t n, double* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const double u = total * s[j];
    const double r = (t[j] - u) / (t[j] + u);
    out[j] = s[j] > 0.0 ? r : 0.0;
  }
}

void rsca_map_scalar(const double* v, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (v[i] - 1.0) / (v[i] + 1.0);
  }
}

// ---- silhouette / Dunn segment kernels ----------------------------------
//
// labeled_sums: per cluster c, the canonical 4-lane order over positions —
// lane l accumulates `labels[j] == c ? d[j] : 0.0` for j == l (mod 4), lanes
// combine as (l0 + l2) + (l1 + l3), tail elements add sequentially. The
// vector kernels run one pass over the data with a register accumulator per
// cluster; the scalar reference runs one pass per cluster. Identical bits:
// each cluster's accumulator sees the same masked adds in the same order.

void labeled_sums_scalar(const double* d, const int* labels, std::size_t n,
                         std::size_t k, double* sums) {
  for (std::size_t c = 0; c < k; ++c) {
    const int ci = static_cast<int>(c);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      s0 += labels[i] == ci ? d[i] : 0.0;
      s1 += labels[i + 1] == ci ? d[i + 1] : 0.0;
      s2 += labels[i + 2] == ci ? d[i + 2] : 0.0;
      s3 += labels[i + 3] == ci ? d[i + 3] : 0.0;
    }
    double acc = (s0 + s2) + (s1 + s3);
    for (; i < n; ++i) acc += labels[i] == ci ? d[i] : 0.0;
    sums[c] += acc;
  }
}

// labeled_extrema: lane l tracks the min (cross-label) and max (same-label)
// of its positions with `(x < acc) ? x : acc` / `(acc < x) ? x : acc`
// semantics — a NaN element keeps the accumulator, matching the scalar
// comparison. Lanes combine as (l0 op l2) op (l1 op l3), tail sequential,
// and the segment extrema then fold into the caller's running values with
// the same comparison.

namespace {

inline double min2(double a, double b) { return b < a ? b : a; }
inline double max2(double a, double b) { return a < b ? b : a; }

}  // namespace

void labeled_extrema_scalar(const double* d, const int* labels, int own,
                            std::size_t n, double* min_inter,
                            double* max_diam) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double x = d[i + l];
      if (labels[i + l] == own) {
        mx[l] = max2(mx[l], x);
      } else {
        mn[l] = min2(mn[l], x);
      }
    }
  }
  double mnc = min2(min2(mn[0], mn[2]), min2(mn[1], mn[3]));
  double mxc = max2(max2(mx[0], mx[2]), max2(mx[1], mx[3]));
  for (; i < n; ++i) {
    const double x = d[i];
    if (labels[i] == own) {
      mxc = max2(mxc, x);
    } else {
      mnc = min2(mnc, x);
    }
  }
  *min_inter = min2(*min_inter, mnc);
  *max_diam = max2(*max_diam, mxc);
}

#if defined(ICN_ML_X86)

__attribute__((target("avx2"))) void rsca_row_avx2(const double* t,
                                                   const double* s,
                                                   double total,
                                                   std::size_t n,
                                                   double* out) {
  const __m256d vt = _mm256_set1_pd(total);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d sv = _mm256_loadu_pd(s + j);
    const __m256d tv = _mm256_loadu_pd(t + j);
    const __m256d u = _mm256_mul_pd(vt, sv);
    const __m256d r = _mm256_div_pd(_mm256_sub_pd(tv, u), _mm256_add_pd(tv, u));
    _mm256_storeu_pd(out + j,
                     _mm256_and_pd(r, _mm256_cmp_pd(sv, zero, _CMP_GT_OQ)));
  }
  for (; j < n; ++j) {
    const double u = total * s[j];
    const double r = (t[j] - u) / (t[j] + u);
    out[j] = s[j] > 0.0 ? r : 0.0;
  }
}

__attribute__((target("avx2"))) void rsca_map_avx2(const double* v,
                                                   std::size_t n,
                                                   double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(_mm256_sub_pd(x, one), _mm256_add_pd(x, one)));
  }
  for (; i < n; ++i) out[i] = (v[i] - 1.0) / (v[i] + 1.0);
}

__attribute__((target("avx2"))) void labeled_sums_avx2(const double* d,
                                                       const int* labels,
                                                       std::size_t n,
                                                       std::size_t k,
                                                       double* sums) {
  // Clusters in groups of 8: one ymm accumulator per cluster, one data pass
  // per group. The paper's cluster counts (k <= ~8) make this a single pass.
  for (std::size_t c0 = 0; c0 < k; c0 += 8) {
    const std::size_t nc = std::min<std::size_t>(8, k - c0);
    __m256d acc[8];
    __m128i cv[8];
    for (std::size_t g = 0; g < nc; ++g) {
      acc[g] = _mm256_setzero_pd();
      cv[g] = _mm_set1_epi32(static_cast<int>(c0 + g));
    }
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d dv = _mm256_loadu_pd(d + i);
      const __m128i lv =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(labels + i));
      for (std::size_t g = 0; g < nc; ++g) {
        const __m256d mask =
            _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(lv, cv[g])));
        acc[g] = _mm256_add_pd(acc[g], _mm256_and_pd(dv, mask));
      }
    }
    for (std::size_t g = 0; g < nc; ++g) {
      const int ci = static_cast<int>(c0 + g);
      alignas(32) double s[4];
      _mm256_store_pd(s, acc[g]);
      double total = (s[0] + s[2]) + (s[1] + s[3]);
      for (std::size_t t = i; t < n; ++t) {
        total += labels[t] == ci ? d[t] : 0.0;
      }
      sums[c0 + g] += total;
    }
  }
}

__attribute__((target("avx2"))) void labeled_extrema_avx2(
    const double* d, const int* labels, int own, std::size_t n,
    double* min_inter, double* max_diam) {
  __m256d mn = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d mx = _mm256_setzero_pd();
  const __m128i ov = _mm_set1_epi32(own);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dv = _mm256_loadu_pd(d + i);
    const __m128i eq = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(labels + i)), ov);
    const __m256d match = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq));
    mx = _mm256_blendv_pd(
        mx, dv, _mm256_and_pd(match, _mm256_cmp_pd(mx, dv, _CMP_LT_OQ)));
    mn = _mm256_blendv_pd(
        mn, dv, _mm256_andnot_pd(match, _mm256_cmp_pd(dv, mn, _CMP_LT_OQ)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, mn);
  double mnc = min2(min2(s[0], s[2]), min2(s[1], s[3]));
  _mm256_store_pd(s, mx);
  double mxc = max2(max2(s[0], s[2]), max2(s[1], s[3]));
  for (; i < n; ++i) {
    const double x = d[i];
    if (labels[i] == own) {
      mxc = max2(mxc, x);
    } else {
      mnc = min2(mnc, x);
    }
  }
  *min_inter = min2(*min_inter, mnc);
  *max_diam = max2(*max_diam, mxc);
}

#else  // !ICN_ML_X86

// Non-x86 builds: the avx2 entries alias the scalar kernels — dispatch still
// works, and ICN_SIMD=avx2 is rejected by util::simd_level().
void rsca_row_avx2(const double* t, const double* s, double total,
                   std::size_t n, double* out) {
  rsca_row_scalar(t, s, total, n, out);
}
void rsca_map_avx2(const double* v, std::size_t n, double* out) {
  rsca_map_scalar(v, n, out);
}
void labeled_sums_avx2(const double* d, const int* labels, std::size_t n,
                       std::size_t k, double* sums) {
  labeled_sums_scalar(d, labels, n, k, sums);
}
void labeled_extrema_avx2(const double* d, const int* labels, int own,
                          std::size_t n, double* min_inter,
                          double* max_diam) {
  labeled_extrema_scalar(d, labels, own, n, min_inter, max_diam);
}

#endif  // ICN_ML_X86

}  // namespace detail

void rsca_row(std::span<const double> traffic, std::span<const double> shares,
              double row_total, std::span<double> out) {
  ICN_REQUIRE(traffic.size() == shares.size() && traffic.size() == out.size(),
              "rsca_row extents");
  static const auto kernel = icn::util::pick_kernel(detail::rsca_row_scalar,
                                                    detail::rsca_row_avx2);
  kernel(traffic.data(), shares.data(), row_total, traffic.size(), out.data());
}

void rsca_map(std::span<const double> rca, std::span<double> out) {
  ICN_REQUIRE(rca.size() == out.size(), "rsca_map extents");
  static const auto kernel = icn::util::pick_kernel(detail::rsca_map_scalar,
                                                    detail::rsca_map_avx2);
  kernel(rca.data(), rca.size(), out.data());
}

void labeled_sums(std::span<const double> d, std::span<const int> labels,
                  std::size_t k, double* sums) {
  ICN_REQUIRE(d.size() == labels.size(), "labeled_sums extents");
  static const auto kernel = icn::util::pick_kernel(
      detail::labeled_sums_scalar, detail::labeled_sums_avx2);
  kernel(d.data(), labels.data(), d.size(), k, sums);
}

void labeled_extrema(std::span<const double> d, std::span<const int> labels,
                     int own, double* min_inter, double* max_diam) {
  ICN_REQUIRE(d.size() == labels.size(), "labeled_extrema extents");
  static const auto kernel = icn::util::pick_kernel(
      detail::labeled_extrema_scalar, detail::labeled_extrema_avx2);
  kernel(d.data(), labels.data(), own, d.size(), min_inter, max_diam);
}

}  // namespace icn::ml
