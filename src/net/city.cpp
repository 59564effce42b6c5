#include "net/city.h"

#include <cmath>

namespace icn::net {

const char* city_name(City c) {
  switch (c) {
    case City::kParis:
      return "Paris";
    case City::kLille:
      return "Lille";
    case City::kLyon:
      return "Lyon";
    case City::kRennes:
      return "Rennes";
    case City::kToulouse:
      return "Toulouse";
    case City::kOther:
      return "Other";
  }
  return "?";
}

bool is_paris(City c) { return c == City::kParis; }

bool has_provincial_metro(City c) {
  return c == City::kLille || c == City::kLyon || c == City::kRennes ||
         c == City::kToulouse;
}

GeoPoint city_center(City c) {
  switch (c) {
    case City::kParis:
      return {48.8566, 2.3522};
    case City::kLille:
      return {50.6292, 3.0573};
    case City::kLyon:
      return {45.7640, 4.8357};
    case City::kRennes:
      return {48.1173, -1.6778};
    case City::kToulouse:
      return {43.6047, 1.4442};
    case City::kOther:
      return {47.0000, 2.0000};  // nominal centre of France
  }
  return {0.0, 0.0};
}

double distance_km(const GeoPoint& a, const GeoPoint& b) {
  constexpr double kEarthRadiusKm = 6371.0;
  constexpr double kDegToRad = M_PI / 180.0;
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(h));
}

}  // namespace icn::net
