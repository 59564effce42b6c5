#include "net/city.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

namespace icn::net {
namespace {

constexpr City kCities[] = {City::kParis,  City::kLille,    City::kLyon,
                            City::kRennes, City::kToulouse, City::kOther};

TEST(CityTest, SixCityClasses) {
  EXPECT_EQ(kNumCities, 6u);
  EXPECT_EQ(std::size(kCities), kNumCities);
}

TEST(CityTest, ParisDetection) {
  EXPECT_TRUE(is_paris(City::kParis));
  EXPECT_FALSE(is_paris(City::kLyon));
  EXPECT_FALSE(is_paris(City::kOther));
}

TEST(CityTest, ProvincialMetroCities) {
  // The paper's cluster 7 = Lille, Lyon, Rennes, Toulouse metros.
  EXPECT_TRUE(has_provincial_metro(City::kLille));
  EXPECT_TRUE(has_provincial_metro(City::kLyon));
  EXPECT_TRUE(has_provincial_metro(City::kRennes));
  EXPECT_TRUE(has_provincial_metro(City::kToulouse));
  EXPECT_FALSE(has_provincial_metro(City::kParis));
  EXPECT_FALSE(has_provincial_metro(City::kOther));
}

TEST(CityTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (const City c : kCities) names.insert(city_name(c));
  EXPECT_EQ(names.size(), 6u);
}

TEST(CityTest, CentersAreInFrance) {
  for (const City c : kCities) {
    const GeoPoint p = city_center(c);
    EXPECT_GT(p.lat_deg, 41.0);
    EXPECT_LT(p.lat_deg, 52.0);
    EXPECT_GT(p.lon_deg, -6.0);
    EXPECT_LT(p.lon_deg, 9.0);
  }
}

TEST(GeoTest, DistanceKnownPairs) {
  // Paris -> Lyon is ~392 km great-circle.
  const double d = distance_km(city_center(City::kParis),
                               city_center(City::kLyon));
  EXPECT_NEAR(d, 392.0, 15.0);
  EXPECT_NEAR(distance_km(city_center(City::kParis),
                          city_center(City::kParis)),
              0.0, 1e-9);
}

TEST(GeoTest, DistanceIsSymmetric) {
  const GeoPoint a = city_center(City::kLille);
  const GeoPoint b = city_center(City::kToulouse);
  EXPECT_DOUBLE_EQ(distance_km(a, b), distance_km(b, a));
}

TEST(GeoTest, OneDegreeLatitudeIs111Km) {
  const GeoPoint a{48.0, 2.0};
  const GeoPoint b{49.0, 2.0};
  EXPECT_NEAR(distance_km(a, b), 111.2, 0.5);
}

}  // namespace
}  // namespace icn::net
