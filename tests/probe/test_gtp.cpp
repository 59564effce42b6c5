#include "probe/gtp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "util/error.h"

namespace icn::probe {
namespace {

TEST(UliDecoderTest, RegisterAndLookup) {
  UliDecoder decoder;
  decoder.register_cell(0x100001, 7);
  const auto hit = decoder.antenna_of(0x100001);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7u);
  EXPECT_FALSE(decoder.antenna_of(0x100002).has_value());  // only that cell
}

TEST(UliDecoderTest, UnknownCellIsNullopt) {
  UliDecoder decoder;
  decoder.register_cell(1, 0);
  EXPECT_FALSE(decoder.antenna_of(2).has_value());
}

TEST(UliDecoderTest, ReRegisteringSameMappingIsIdempotent) {
  UliDecoder decoder;
  decoder.register_cell(5, 3);
  EXPECT_NO_THROW(decoder.register_cell(5, 3));
  EXPECT_EQ(decoder.antenna_of(5), std::optional<std::uint32_t>(3));
}

TEST(UliDecoderTest, ConflictingRegistrationThrows) {
  UliDecoder decoder;
  decoder.register_cell(5, 3);
  EXPECT_THROW(decoder.register_cell(5, 4), icn::util::PreconditionError);
}

TEST(UliDecoderTest, RegisterRangeMapsContiguously) {
  UliDecoder decoder;
  decoder.register_range(0x0010'0000, 100);
  EXPECT_FALSE(decoder.antenna_of(0x0010'0000 - 1).has_value());
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto hit = decoder.antenna_of(0x0010'0000 + i);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, i);
  }
  EXPECT_FALSE(decoder.antenna_of(0x0010'0000 + 100).has_value());
  EXPECT_FALSE(decoder.antenna_of(0x000F'FFFF).has_value());
}

}  // namespace
}  // namespace icn::probe
