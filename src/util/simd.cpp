#include "util/simd.h"

#include <cstdlib>
#include <string>

#include "util/error.h"

#if defined(__x86_64__) || defined(__i386__)
#define ICN_SIMD_X86 1
#endif

namespace icn::util {

const char* simd_level_name(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

SimdLevel max_supported_simd_level() {
#if defined(ICN_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

std::optional<SimdLevel> parse_simd_level(const char* value) {
  if (value == nullptr) return std::nullopt;
  std::string v;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p == ' ' || *p == '\t') continue;
    v += (*p >= 'A' && *p <= 'Z') ? static_cast<char>(*p - 'A' + 'a') : *p;
  }
  if (v.empty()) return std::nullopt;
  if (v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") return SimdLevel::kAvx2;
  throw EnvConfigError(std::string("ICN_SIMD=\"") + value +
                       "\" is not a SIMD level (expected one of: scalar, "
                       "avx2; unset = auto-detect)");
}

SimdLevel resolve_simd_level(std::optional<SimdLevel> requested,
                             SimdLevel supported) {
  if (!requested.has_value()) return supported;
  if (*requested > supported) {
    throw EnvConfigError(std::string("ICN_SIMD=") +
                         simd_level_name(*requested) +
                         " requested but this CPU only supports " +
                         simd_level_name(supported));
  }
  return *requested;
}

SimdLevel simd_level() {
  // Resolved once; a throwing resolution (garbage or unsupported ICN_SIMD)
  // is retried — and rethrown — on every call, so the error cannot be lost.
  static const SimdLevel level = resolve_simd_level(
      parse_simd_level(std::getenv("ICN_SIMD")), max_supported_simd_level());
  return level;
}

bool cpu_supports_crc32c() {
#if defined(ICN_SIMD_X86)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace icn::util
