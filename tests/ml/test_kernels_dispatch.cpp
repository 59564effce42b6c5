// Bit-parity suites for the dispatched analysis kernels: the fused RSCA
// transform, the silhouette/Dunn segment kernels, the x4 row-batched
// distance kernel, and the tiled condensed-distance builder (byte-identical
// at every tile size and thread count). Mirrors
// tests/ml/test_simd_dispatch.cpp: lengths 0..67 sweep every tail path, plus
// unaligned and NaN/Inf inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/distance.h"
#include "ml/kernels.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace icn::ml {
namespace {

using icn::util::SimdLevel;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (icn::util::max_supported_simd_level() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

void run_rsca_row(SimdLevel level, const double* t, const double* s,
                  double total, std::size_t n, double* out) {
  if (level == SimdLevel::kAvx2) {
    return detail::rsca_row_avx2(t, s, total, n, out);
  }
  detail::rsca_row_scalar(t, s, total, n, out);
}

void run_rsca_map(SimdLevel level, const double* v, std::size_t n,
                  double* out) {
  if (level == SimdLevel::kAvx2) {
    return detail::rsca_map_avx2(v, n, out);
  }
  detail::rsca_map_scalar(v, n, out);
}

void run_labeled_sums(SimdLevel level, const double* d, const int* labels,
                      std::size_t n, std::size_t k, double* sums) {
  if (level == SimdLevel::kAvx2) {
    return detail::labeled_sums_avx2(d, labels, n, k, sums);
  }
  detail::labeled_sums_scalar(d, labels, n, k, sums);
}

void run_labeled_extrema(SimdLevel level, const double* d, const int* labels,
                         int own, std::size_t n, double* mn, double* mx) {
  if (level == SimdLevel::kAvx2) {
    return detail::labeled_extrema_avx2(d, labels, own, n, mn, mx);
  }
  detail::labeled_extrema_scalar(d, labels, own, n, mn, mx);
}

void run_x4(SimdLevel level, const double* a, const double* b,
            std::size_t stride, std::size_t n, double out[4]) {
  if (level == SimdLevel::kAvx2) {
    return detail::squared_euclidean_x4_avx2(a, b, stride, n, out);
  }
  detail::squared_euclidean_x4_scalar(a, b, stride, n, out);
}

// ---------------------------------------------------------------------------
// RSCA kernels

TEST(KernelsDispatchTest, RscaRowAllLanesBitExactOverEveryShortLength) {
  icn::util::Rng rng(811);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> t(n), s(n), ref(n), got(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Zero traffic cells and non-positive shares exercise both select
      // branches; magnitudes span a wide range.
      t[i] = (i % 5 == 0) ? 0.0
                          : std::abs(rng.normal()) *
                                std::pow(10.0, rng.uniform(-6.0, 6.0));
      s[i] = (i % 7 == 0) ? 0.0 : std::abs(rng.normal());
      if (i % 11 == 0) s[i] = -s[i];
      total += t[i];
    }
    total = std::max(total, 1e-9);
    detail::rsca_row_scalar(t.data(), s.data(), total, n, ref.data());
    for (const SimdLevel level : levels) {
      run_rsca_row(level, t.data(), s.data(), total, n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(ref[i]), bits(got[i]))
            << "rsca_row level " << icn::util::simd_level_name(level)
            << " n " << n << " i " << i;
      }
    }
  }
}

TEST(KernelsDispatchTest, RscaMapAllLanesBitExactOverEveryShortLength) {
  icn::util::Rng rng(813);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> v(n), ref(n), got(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = (i % 6 == 0) ? 0.0 : std::abs(rng.normal()) * 10.0;
      if (i % 13 == 0) v[i] = kInf;  // Inf/Inf: the same default NaN per lane
    }
    detail::rsca_map_scalar(v.data(), n, ref.data());
    for (const SimdLevel level : levels) {
      run_rsca_map(level, v.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(ref[i]), bits(got[i]))
            << "rsca_map level " << icn::util::simd_level_name(level)
            << " n " << n << " i " << i;
      }
    }
  }
}

TEST(KernelsDispatchTest, RscaRowUnalignedAndSpecialValues) {
  icn::util::Rng rng(815);
  constexpr std::size_t kPad = 8;
  constexpr std::size_t kLen = 61;
  std::vector<double> buf_t(kPad + kLen), buf_s(kPad + kLen),
      ref(kLen), got(kLen);
  for (auto& x : buf_t) x = std::abs(rng.normal()) * 1e3;
  for (auto& x : buf_s) x = std::abs(rng.normal());
  buf_s[kPad + 5] = kNan;   // NaN share: s > 0 is false -> 0.0 on all lanes
  buf_s[kPad + 9] = 0.0;
  buf_t[kPad + 17] = kInf;
  const auto levels = runnable_levels();
  for (std::size_t off = 0; off < kPad; ++off) {
    const double* t = buf_t.data() + off;
    const double* s = buf_s.data() + off;
    detail::rsca_row_scalar(t, s, 7.25, kLen, ref.data());
    for (const SimdLevel level : levels) {
      run_rsca_row(level, t, s, 7.25, kLen, got.data());
      for (std::size_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(bits(ref[i]), bits(got[i]))
            << "offset " << off << " level "
            << icn::util::simd_level_name(level) << " i " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// silhouette / Dunn segment kernels

TEST(KernelsDispatchTest, LabeledSumsAllLanesBitExactOverEveryShortLength) {
  icn::util::Rng rng(821);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{9},
                                std::size_t{17}}) {
      std::vector<double> d(n);
      std::vector<int> labels(n);
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = std::abs(rng.normal()) * std::pow(10.0, rng.uniform(-6.0, 6.0));
        labels[i] = static_cast<int>(rng.uniform_index(k));
      }
      // Non-zero initial sums: the kernels accumulate, they don't overwrite.
      std::vector<double> ref(k), got(k);
      for (std::size_t c = 0; c < k; ++c) ref[c] = 0.125 * double(c + 1);
      got = ref;
      detail::labeled_sums_scalar(d.data(), labels.data(), n, k, ref.data());
      for (const SimdLevel level : levels) {
        auto lane = got;
        run_labeled_sums(level, d.data(), labels.data(), n, k, lane.data());
        for (std::size_t c = 0; c < k; ++c) {
          ASSERT_EQ(bits(ref[c]), bits(lane[c]))
              << "labeled_sums level " << icn::util::simd_level_name(level)
              << " n " << n << " k " << k << " c " << c;
        }
      }
    }
  }
}

TEST(KernelsDispatchTest, LabeledExtremaAllLanesBitExactWithNanAndInf) {
  icn::util::Rng rng(823);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> d(n);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = std::abs(rng.normal()) * 100.0;
      if (i % 9 == 0) d[i] = kNan;  // NaN keeps the accumulator on all lanes
      if (i % 14 == 0) d[i] = kInf;
      if (i % 15 == 0) d[i] = 0.0;
      labels[i] = static_cast<int>(rng.uniform_index(3));
    }
    double ref_mn = kInf, ref_mx = 0.0;
    detail::labeled_extrema_scalar(d.data(), labels.data(), 1, n, &ref_mn,
                                   &ref_mx);
    for (const SimdLevel level : levels) {
      double mn = kInf, mx = 0.0;
      run_labeled_extrema(level, d.data(), labels.data(), 1, n, &mn, &mx);
      ASSERT_EQ(bits(ref_mn), bits(mn))
          << "min level " << icn::util::simd_level_name(level) << " n " << n;
      ASSERT_EQ(bits(ref_mx), bits(mx))
          << "max level " << icn::util::simd_level_name(level) << " n " << n;
    }
  }
}

TEST(KernelsDispatchTest, LabeledExtremaFoldsIntoRunningValues) {
  // The kernel folds into the caller's accumulators; pre-seeded values must
  // survive when the segment does not beat them.
  const std::vector<double> d = {5.0, 6.0, 7.0};
  const std::vector<int> labels = {0, 1, 0};
  for (const SimdLevel level : runnable_levels()) {
    double mn = 1.0, mx = 100.0;
    run_labeled_extrema(level, d.data(), labels.data(), 0, d.size(), &mn,
                        &mx);
    EXPECT_EQ(1.0, mn) << icn::util::simd_level_name(level);
    EXPECT_EQ(100.0, mx) << icn::util::simd_level_name(level);
  }
}

// ---------------------------------------------------------------------------
// x4 row-batched distance kernel

TEST(KernelsDispatchTest, X4MatchesFourSingleKernelCallsOnEveryLane) {
  icn::util::Rng rng(827);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    const std::size_t stride = n + 3;  // rows deliberately over-allocated
    std::vector<double> a(n), b(4 * stride);
    for (auto& x : a) x = rng.normal() * std::pow(10.0, rng.uniform(-4., 4.));
    for (auto& x : b) x = rng.normal();
    double ref[4];
    for (std::size_t r = 0; r < 4; ++r) {
      ref[r] = detail::squared_euclidean_scalar(a.data(),
                                                b.data() + r * stride, n);
    }
    for (const SimdLevel level : levels) {
      double got[4];
      run_x4(level, a.data(), b.data(), stride, n, got);
      for (std::size_t r = 0; r < 4; ++r) {
        ASSERT_EQ(bits(ref[r]), bits(got[r]))
            << "x4 level " << icn::util::simd_level_name(level) << " n " << n
            << " row " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tiled condensed distances: byte-identical across tiles and thread counts

TEST(TiledDistanceTest, EveryTileSizeProducesByteIdenticalCondensedOutput) {
  icn::util::Rng rng(831);
  const std::size_t n = 75, m = 19;
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.normal() * 10.0;
  std::vector<double> ref(n * (n - 1) / 2);
  fill_condensed(x, /*squared=*/false, ref, /*tile=*/1);
  // Pairwise scalar-kernel reference: the tiled/batched path may not change
  // a single bit relative to one kernel call per pair.
  for (std::size_t i = 0, at = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++at) {
      ASSERT_EQ(bits(std::sqrt(detail::squared_euclidean_scalar(
                    x.data().data() + i * m, x.data().data() + j * m, m))),
                bits(ref[at]))
          << "pair " << i << "," << j;
    }
  }
  for (const std::size_t tile : {std::size_t{2}, std::size_t{3},
                                 std::size_t{16}, std::size_t{64},
                                 std::size_t{200}}) {
    std::vector<double> out(ref.size(), -1.0);
    fill_condensed(x, /*squared=*/false, out, tile);
    for (std::size_t at = 0; at < ref.size(); ++at) {
      ASSERT_EQ(bits(ref[at]), bits(out[at])) << "tile " << tile;
    }
  }
  // Squared variant sweeps tiles too.
  std::vector<double> sq_ref(ref.size()), sq(ref.size());
  fill_condensed(x, /*squared=*/true, sq_ref, /*tile=*/5);
  fill_condensed(x, /*squared=*/true, sq, /*tile=*/33);
  for (std::size_t at = 0; at < sq.size(); ++at) {
    ASSERT_EQ(bits(sq_ref[at]), bits(sq[at]));
  }
}

TEST(TiledDistanceTest, ThreadCountCannotChangeTiledOutputBits) {
  icn::util::Rng rng(833);
  const std::size_t n = 90, m = 11;
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.normal();
  std::vector<double> ref(n * (n - 1) / 2);
  {
    icn::util::ThreadPool::ScopedOverride pool(1);
    fill_condensed(x, /*squared=*/false, ref, /*tile=*/8);
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5},
                                    std::size_t{8}}) {
    icn::util::ThreadPool::ScopedOverride pool(threads);
    for (const std::size_t tile : {std::size_t{4}, std::size_t{8},
                                   std::size_t{64}}) {
      std::vector<double> out(ref.size());
      fill_condensed(x, /*squared=*/false, out, tile);
      for (std::size_t at = 0; at < ref.size(); ++at) {
        ASSERT_EQ(bits(ref[at]), bits(out[at]))
            << "threads " << threads << " tile " << tile;
      }
    }
  }
}

TEST(TiledDistanceTest, CondensedDistancesRowTailViewsTheTriangleRow) {
  icn::util::Rng rng(835);
  const std::size_t n = 23;
  Matrix x(n, 7);
  for (auto& v : x.data()) v = rng.normal();
  const CondensedDistances dist(x);
  for (std::size_t i = 0; i < n; ++i) {
    const auto tail = dist.row_tail(i);
    ASSERT_EQ(n - i - 1, tail.size());
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(bits(dist(i, j)), bits(tail[j - i - 1]));
    }
  }
  EXPECT_TRUE(dist.row_tail(n - 1).empty());
}

}  // namespace
}  // namespace icn::ml
