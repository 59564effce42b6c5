#include "store/crc32c.h"

#include <array>
#include <cstdlib>
#include <cstring>

#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define ICN_CRC_X86 1
#include <nmmintrin.h>
#endif

namespace icn::store {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected.

/// 8 slicing tables: table[0] is the classic byte-at-a-time table, table[k]
/// advances a byte through k+1 zero bytes.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

constexpr Tables kTables{};

}  // namespace

namespace detail {

std::uint32_t crc32c_table_extend(std::uint32_t crc,
                                  std::span<const std::uint8_t> bytes) {
  const auto& t = kTables.t;
  crc = ~crc;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Slicing-by-8 over the aligned middle; byte-at-a-time for the tail.
  while (n >= 8) {
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24));
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(ICN_CRC_X86)

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw_extend(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  crc = ~crc;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Byte steps up to 8-byte alignment, then crc32 on aligned quadwords.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
#if defined(__x86_64__)
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
#else
  while (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
#endif
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return ~crc;
}

#else  // !ICN_CRC_X86

std::uint32_t crc32c_hw_extend(std::uint32_t crc,
                               std::span<const std::uint8_t> bytes) {
  return crc32c_table_extend(crc, bytes);
}

#endif  // ICN_CRC_X86

}  // namespace detail

namespace {

using Crc32cFn = std::uint32_t (*)(std::uint32_t, std::span<const std::uint8_t>);

bool use_hw_crc32c() {
  // ICN_SIMD=scalar pins the portable path; any other setting (or unset)
  // takes the hardware instruction whenever the CPU has SSE4.2 — also on x86
  // hosts without AVX2, where simd_level() itself resolves to kScalar. The
  // simd_level() call validates ICN_SIMD, so a malformed value throws here
  // as it does in the analysis kernels.
  (void)icn::util::simd_level();
  return icn::util::parse_simd_level(std::getenv("ICN_SIMD")) !=
             icn::util::SimdLevel::kScalar &&
         icn::util::cpu_supports_crc32c();
}

Crc32cFn pick_crc32c() {
  return use_hw_crc32c() ? detail::crc32c_hw_extend
                         : detail::crc32c_table_extend;
}

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> bytes) {
  static const Crc32cFn kernel = pick_crc32c();
  return kernel(crc, bytes);
}

const char* crc32c_backend() {
  static const char* const backend = use_hw_crc32c() ? "sse4.2" : "table";
  return backend;
}

}  // namespace icn::store
