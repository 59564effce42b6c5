// City model: the paper distinguishes Paris (and suburbs) from the non-capital
// metro cities (Lille, Lyon, Rennes, Toulouse) and everything else, and uses
// that split to interpret clusters 0/4 vs 7, and 1/2/3 (Sec. 5.2.2).
#pragma once

#include <cstddef>

namespace icn::net {

/// City (or city class) an antenna belongs to.
enum class City : int {
  kParis = 0,     ///< Paris and its suburbs (incl. the RER network).
  kLille = 1,
  kLyon = 2,
  kRennes = 3,
  kToulouse = 4,
  kOther = 5,     ///< Any other French urban/suburban/rural location.
};

/// Number of city classes.
inline constexpr std::size_t kNumCities = 6;

/// Human-readable name, e.g. "Paris".
[[nodiscard]] const char* city_name(City c);

/// True for Paris and its suburbs.
[[nodiscard]] bool is_paris(City c);

/// True for the non-capital cities that operate their own metro systems
/// (Lille, Lyon, Rennes, Toulouse) — cluster 7's home in the paper.
[[nodiscard]] bool has_provincial_metro(City c);

/// Approximate geographic centre (latitude, longitude) used to place
/// synthetic sites.
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

/// City centre coordinates.
[[nodiscard]] GeoPoint city_center(City c);

/// Great-circle distance between two points in kilometres (haversine).
[[nodiscard]] double distance_km(const GeoPoint& a, const GeoPoint& b);

}  // namespace icn::net
