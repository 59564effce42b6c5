#include "probe/probe.h"

#include <gtest/gtest.h>

namespace icn::probe {
namespace {

icn::traffic::FlowRecord make_flow(std::uint32_t ecgi, const char* sni,
                                   double down = 1.0e6, double up = 2.0e5,
                                   std::int64_t hour = 5) {
  icn::traffic::FlowRecord f;
  f.ecgi = ecgi;
  f.sni = sni;
  f.down_bytes = down;
  f.up_bytes = up;
  f.start_hour = hour;
  return f;
}

class PassiveProbeTest : public ::testing::Test {
 protected:
  void SetUp() override { decoder_.register_range(1000, 10); }

  icn::traffic::ServiceCatalog catalog_;
  UliDecoder decoder_;
  DpiClassifier dpi_{catalog_};
};

TEST_F(PassiveProbeTest, ResolvesSessionEndToEnd) {
  PassiveProbe probe(decoder_, dpi_);
  const auto session = probe.observe(make_flow(1003, "spotify.com"));
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->antenna_id, 3u);
  EXPECT_EQ(catalog_.at(session->service).name, "Spotify");
  EXPECT_EQ(session->hour, 5);
  EXPECT_DOUBLE_EQ(session->down_bytes, 1.0e6);
  EXPECT_DOUBLE_EQ(session->up_bytes, 2.0e5);
  EXPECT_DOUBLE_EQ(session->volume_mb(), 1.2);
}

TEST_F(PassiveProbeTest, DropsUnknownLocation) {
  PassiveProbe probe(decoder_, dpi_);
  EXPECT_FALSE(probe.observe(make_flow(9999, "spotify.com")).has_value());
  EXPECT_EQ(probe.unknown_location(), 1u);
  EXPECT_EQ(dpi_.unmatched(), 0u);
}

TEST_F(PassiveProbeTest, DropsUnknownService) {
  PassiveProbe probe(decoder_, dpi_);
  EXPECT_FALSE(probe.observe(make_flow(1000, "mystery.example")).has_value());
  EXPECT_EQ(probe.unknown_location(), 0u);
  EXPECT_EQ(dpi_.unmatched(), 1u);
}

TEST_F(PassiveProbeTest, LocationCheckedBeforeService) {
  // A flow failing both checks counts only as unknown location.
  PassiveProbe probe(decoder_, dpi_);
  EXPECT_FALSE(probe.observe(make_flow(9999, "mystery.example")).has_value());
  EXPECT_EQ(probe.unknown_location(), 1u);
  EXPECT_EQ(dpi_.unmatched(), 0u);
}

TEST_F(PassiveProbeTest, ObserveAllFiltersBatch) {
  PassiveProbe probe(decoder_, dpi_);
  std::vector<icn::traffic::FlowRecord> flows = {
      make_flow(1000, "spotify.com"),
      make_flow(9999, "spotify.com"),   // bad cell
      make_flow(1001, "who.example"),   // bad sni
      make_flow(1002, "waze.com"),
  };
  const auto sessions = probe.observe_all(flows);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].antenna_id, 0u);
  EXPECT_EQ(sessions[1].antenna_id, 2u);
  EXPECT_EQ(probe.unknown_location(), 1u);
  EXPECT_EQ(dpi_.unmatched(), 1u);
}

}  // namespace
}  // namespace icn::probe
