#include "util/ascii.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(RenderHistogramTest, BarsScaleWithCounts) {
  Histogram h;
  h.lo = 0.0;
  h.hi = 2.0;
  h.counts = {1, 4};
  const std::string out = render_histogram(h, 8);
  // Two lines, the second bar 8 hashes, the first 2.
  const auto first_line_end = out.find('\n');
  const std::string first = out.substr(0, first_line_end);
  const std::string second = out.substr(first_line_end + 1);
  EXPECT_EQ(std::count(first.begin(), first.end(), '#'), 2);
  EXPECT_EQ(std::count(second.begin(), second.end(), '#'), 8);
}

TEST(RenderBarTest, Proportional) {
  EXPECT_EQ(render_bar(5.0, 10.0, 10), "#####");
  EXPECT_EQ(render_bar(20.0, 10.0, 10).size(), 10u);  // clamped
  EXPECT_EQ(render_bar(1.0, 0.0, 10), "");
}

TEST(RenderHeatmapTest, ShapeAndRamp) {
  const std::vector<double> values = {0.0, 1.0, 0.5, 0.0};
  const std::string out = render_heatmap(values, 2, 2, 0.0, 1.0);
  const auto nl = out.find('\n');
  EXPECT_EQ(nl, 2u);  // two columns per row
  EXPECT_EQ(out[0], ' ');   // min of ramp
  EXPECT_EQ(out[1], '@');   // max of ramp
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(RenderHeatmapTest, RejectsShapeMismatch) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  EXPECT_THROW(render_heatmap(values, 2, 2, 0.0, 1.0), PreconditionError);
}

TEST(RenderHeatmapTest, DegenerateRangeRendersLow) {
  const std::vector<double> values = {5.0, 5.0};
  const std::string out = render_heatmap(values, 1, 2, 5.0, 5.0);
  EXPECT_EQ(out[0], ' ');
}

TEST(RenderSignedHeatmapTest, DirectionalGlyphs) {
  const std::vector<double> values = {-1.0, -0.05, 0.05, 1.0};
  const std::string out = render_signed_heatmap(values, 1, 4);
  EXPECT_EQ(out[0], '@');  // strong under-utilization
  EXPECT_EQ(out[1], '.');  // neutral band
  EXPECT_EQ(out[2], '.');
  EXPECT_EQ(out[3], '@');  // strong over-utilization
}

TEST(RenderSignedHeatmapTest, ClampsOutOfRange) {
  const std::vector<double> values = {-5.0, 5.0};
  const std::string out = render_signed_heatmap(values, 1, 2);
  EXPECT_EQ(out[0], '@');
  EXPECT_EQ(out[1], '@');
}

TEST(RenderSankeyTest, ProportionalFlows) {
  std::vector<SankeyFlow> flows = {
      {"c0", "Metro", 90.0},
      {"c0", "Train", 10.0},
  };
  const std::string out = render_sankey(flows, 0.0);
  EXPECT_NE(out.find("c0"), std::string::npos);
  EXPECT_NE(out.find("Metro"), std::string::npos);
  EXPECT_NE(out.find("(90.0%)"), std::string::npos);
  EXPECT_NE(out.find("(10.0%)"), std::string::npos);
}

TEST(RenderSankeyTest, MergesSmallFlowsIntoOther) {
  std::vector<SankeyFlow> flows = {
      {"c0", "Metro", 99.5},
      {"c0", "Hotel", 0.25},
      {"c0", "Expo", 0.25},
  };
  const std::string out = render_sankey(flows, 0.01);
  EXPECT_EQ(out.find("Hotel"), std::string::npos);
  EXPECT_NE(out.find("(other)"), std::string::npos);
}

TEST(RenderSankeyTest, EmptyAndInvalid) {
  EXPECT_TRUE(render_sankey({}).empty());
  std::vector<SankeyFlow> negative = {{"a", "b", -1.0}};
  EXPECT_THROW(render_sankey(negative), PreconditionError);
}

}  // namespace
}  // namespace icn::util
