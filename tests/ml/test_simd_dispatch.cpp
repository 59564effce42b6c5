// Bit-exactness parity of the runtime-dispatched SIMD lanes: the AVX2 lane,
// when the CPU can execute it, must produce byte-identical results to the
// scalar kernel — over odd lengths, unaligned pointers, and NaN/Inf inputs —
// plus the ICN_SIMD env parsing contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ml/distance.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd.h"

namespace icn::ml {
namespace {

using icn::util::EnvConfigError;
using icn::util::SimdLevel;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The per-level kernels runnable on this CPU, scalar first.
std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (icn::util::max_supported_simd_level() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

double run_squared_euclidean(SimdLevel level, const double* a, const double* b,
                             std::size_t n) {
  return level == SimdLevel::kAvx2 ? detail::squared_euclidean_avx2(a, b, n)
                                   : detail::squared_euclidean_scalar(a, b, n);
}

TEST(SimdDispatchTest, AllLanesBitExactOverEveryShortLength) {
  // Every length 0..67 hits all tail paths of the 4-wide loops; values
  // span many orders of magnitude so a reordered accumulation cannot hide in
  // rounding slack.
  icn::util::Rng rng(4242);
  const auto levels = runnable_levels();
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::pow(10.0, rng.uniform(-8.0, 8.0));
      a[i] = rng.normal() * scale;
      b[i] = rng.normal() * scale;
    }
    const double ref_d = detail::squared_euclidean_scalar(a.data(), b.data(), n);
    for (const SimdLevel level : levels) {
      EXPECT_EQ(bits(ref_d), bits(run_squared_euclidean(level, a.data(),
                                                        b.data(), n)))
          << "squared_euclidean level " << icn::util::simd_level_name(level)
          << " n " << n;
    }
  }
}

TEST(SimdDispatchTest, UnalignedPointersBitExact) {
  // Start the operands at every misalignment 0..7 doubles into a big buffer:
  // the kernels use unaligned loads, so no offset may change bits (or crash).
  icn::util::Rng rng(977);
  constexpr std::size_t kPad = 8;
  constexpr std::size_t kLen = 129;
  std::vector<double> buf_a(kPad + kLen), buf_b(kPad + kLen);
  for (auto& x : buf_a) x = rng.normal() * 1e3;
  for (auto& x : buf_b) x = rng.normal() * 1e-3;
  const auto levels = runnable_levels();
  for (std::size_t off_a = 0; off_a < kPad; ++off_a) {
    for (std::size_t off_b : {std::size_t{0}, std::size_t{3}, kPad - 1}) {
      const double* a = buf_a.data() + off_a;
      const double* b = buf_b.data() + off_b;
      const double ref = detail::squared_euclidean_scalar(a, b, kLen);
      for (const SimdLevel level : levels) {
        EXPECT_EQ(bits(ref), bits(run_squared_euclidean(level, a, b, kLen)))
            << "offsets " << off_a << "/" << off_b << " level "
            << icn::util::simd_level_name(level);
      }
    }
  }
}

TEST(SimdDispatchTest, NanAndInfPropagateIdentically) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto levels = runnable_levels();
  // NaN/Inf in every position class (head lanes, 4-wide body, tails).
  const std::vector<std::vector<double>> cases = {
      {kNan},
      {1.0, kInf},
      {kInf, -kInf, 3.0},
      {1.0, 2.0, 3.0, kNan, 5.0},
      {kInf, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0},
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, kNan, 12.0, 13.0},
      {-kInf, kInf, kNan, 0.0, -0.0, 1e308, -1e308, 4.0, kNan},
  };
  for (const auto& a : cases) {
    std::vector<double> b(a.size(), 1.5);
    const double ref_d =
        detail::squared_euclidean_scalar(a.data(), b.data(), a.size());
    for (const SimdLevel level : levels) {
      EXPECT_EQ(bits(ref_d), bits(run_squared_euclidean(level, a.data(),
                                                        b.data(), a.size())))
          << "level " << icn::util::simd_level_name(level);
    }
  }
}

TEST(SimdDispatchTest, PublicEntryPointsMatchScalarKernelBitForBit) {
  // Whatever lane this process dispatched to, the public functions must
  // agree with the scalar kernel — the end-to-end form of the parity
  // guarantee (ICN_SIMD=scalar is byte-identical to ICN_SIMD=avx2).
  icn::util::Rng rng(31337);
  for (const std::size_t n : {1u, 3u, 7u, 16u, 33u, 128u, 1001u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.normal() * 100.0;
      b[i] = rng.normal() * 0.01;
    }
    EXPECT_EQ(bits(squared_euclidean(a, b)),
              bits(detail::squared_euclidean_scalar(a.data(), b.data(), n)));
  }
}

TEST(SimdLevelTest, ParsesCanonicalNames) {
  EXPECT_EQ(icn::util::parse_simd_level(nullptr), std::nullopt);
  EXPECT_EQ(icn::util::parse_simd_level(""), std::nullopt);
  EXPECT_EQ(icn::util::parse_simd_level("  "), std::nullopt);
  EXPECT_EQ(icn::util::parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(icn::util::parse_simd_level("SCALAR"), SimdLevel::kScalar);
  EXPECT_EQ(icn::util::parse_simd_level(" avx2 "), SimdLevel::kAvx2);
  EXPECT_EQ(icn::util::parse_simd_level("AVX2"), SimdLevel::kAvx2);
}

TEST(SimdLevelTest, GarbageIcnSimdThrowsTypedError) {
  for (const char* bad : {"avx", "512", "sse4.2", "fast", "scalar2", "-1"}) {
    EXPECT_THROW((void)icn::util::parse_simd_level(bad), EnvConfigError)
        << bad;
  }
  // The retired lane names fail like any other typo, in any letter case:
  // the message names the variable and the value and lists what is accepted.
  for (const char* bad : {"turbo", "sse2", "avx512", "AVX2FMA", "Avx512"}) {
    try {
      (void)icn::util::parse_simd_level(bad);
      ADD_FAILURE() << "expected EnvConfigError for " << bad;
    } catch (const EnvConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ICN_SIMD"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
      EXPECT_NE(what.find("scalar, avx2"), std::string::npos) << what;
    }
  }
}

TEST(SimdLevelTest, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    EXPECT_EQ(icn::util::parse_simd_level(icn::util::simd_level_name(level)),
              level);
  }
}

TEST(SimdLevelTest, DispatchedLevelIsRunnable) {
  EXPECT_LE(icn::util::simd_level(), icn::util::max_supported_simd_level());
}

TEST(SimdLevelTest, ResolveKeepsTheNonFmaOrderContract) {
  // Unset resolves to the probed lane; scalar runs anywhere.
  for (const SimdLevel supported : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    EXPECT_EQ(icn::util::resolve_simd_level(std::nullopt, supported),
              supported);
    EXPECT_EQ(icn::util::resolve_simd_level(SimdLevel::kScalar, supported),
              SimdLevel::kScalar);
  }
  EXPECT_EQ(icn::util::resolve_simd_level(SimdLevel::kAvx2, SimdLevel::kAvx2),
            SimdLevel::kAvx2);
  // avx2 on scalar-only hardware: typed error naming the variable and value.
  try {
    (void)icn::util::resolve_simd_level(SimdLevel::kAvx2, SimdLevel::kScalar);
    FAIL() << "expected EnvConfigError";
  } catch (const EnvConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ICN_SIMD"), std::string::npos) << what;
    EXPECT_NE(what.find("avx2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace icn::ml
