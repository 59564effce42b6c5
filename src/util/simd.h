// Runtime SIMD dispatch policy for the vectorized kernels (squared-Euclidean
// distances, canonical-order accumulation, RSCA/labeled-sum kernels, hardware
// CRC32C).
//
// Two lanes: the scalar reference, which defines the canonical accumulation
// order and is the only lane on non-x86 builds, and AVX2. AVX2 support is
// probed once via cpuid at first use and every kernel dispatches through a
// function pointer picked from that probe. The ICN_SIMD environment variable
// pins the lane for A/B parity tests and benchmarks:
//
//   ICN_SIMD=scalar | avx2
//
// A garbage value (including the names of the retired SSE2, AVX-512 and FMA
// lanes), or avx2 on a CPU without it, throws icn::util::EnvConfigError at
// first use — configuration typos fail loudly instead of silently
// benchmarking the wrong kernel. Both lanes keep the same canonical
// accumulation order (see ml/distance.h), so ICN_SIMD changes speed, never
// bits.
#pragma once

#include <optional>

namespace icn::util {

/// Kernel lanes, ordered: a CPU supporting kAvx2 also runs kScalar.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Lower-case canonical name ("scalar", "avx2").
[[nodiscard]] const char* simd_level_name(SimdLevel level);

/// kAvx2 when cpuid reports AVX2, else kScalar (always kScalar on non-x86
/// builds).
[[nodiscard]] SimdLevel max_supported_simd_level();

/// Parses an ICN_SIMD-style value: nullopt when unset/blank (auto-detect),
/// the level for "scalar" or "avx2" (case-insensitive), and EnvConfigError
/// for anything else.
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(const char* value);

/// Pure resolution policy, exposed so the hardware-dependent rejection path
/// is testable on any machine: returns `supported` when nothing was
/// requested; throws EnvConfigError (naming ICN_SIMD and the offending value)
/// when the request exceeds `supported`.
[[nodiscard]] SimdLevel resolve_simd_level(std::optional<SimdLevel> requested,
                                           SimdLevel supported);

/// The level the dispatched kernels run at: ICN_SIMD when set (EnvConfigError
/// if it is garbage or exceeds what the CPU supports), else the probed
/// maximum. Resolved once and cached for the process lifetime.
[[nodiscard]] SimdLevel simd_level();

/// The kernel a dispatched entry point binds: `avx2` when simd_level() is
/// kAvx2, else `scalar`.
template <typename Fn>
[[nodiscard]] Fn pick_kernel(Fn scalar, Fn avx2) {
  return simd_level() == SimdLevel::kAvx2 ? avx2 : scalar;
}

/// True when the CPU has SSE4.2 (the crc32 instruction). Probed separately
/// from SimdLevel because CRC32C is an integer-lane feature, but the store's
/// dispatch still honours ICN_SIMD=scalar to force the table path.
[[nodiscard]] bool cpu_supports_crc32c();

}  // namespace icn::util
