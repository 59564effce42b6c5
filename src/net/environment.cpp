#include "net/environment.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "util/error.h"

namespace icn::net {

const std::array<Environment, kNumEnvironments>& all_environments() {
  static const std::array<Environment, kNumEnvironments> kAll = {
      Environment::kMetro,      Environment::kTrain,
      Environment::kAirport,    Environment::kWorkspace,
      Environment::kCommercial, Environment::kStadium,
      Environment::kExpo,       Environment::kHotel,
      Environment::kHospital,   Environment::kTunnel,
      Environment::kPublicBuilding,
  };
  return kAll;
}

const char* environment_name(Environment e) {
  switch (e) {
    case Environment::kMetro:
      return "Metro";
    case Environment::kTrain:
      return "Train";
    case Environment::kAirport:
      return "Airport";
    case Environment::kWorkspace:
      return "Workspace";
    case Environment::kCommercial:
      return "Commercial";
    case Environment::kStadium:
      return "Stadium";
    case Environment::kExpo:
      return "ExpoCenter";
    case Environment::kHotel:
      return "Hotel";
    case Environment::kHospital:
      return "Hospital";
    case Environment::kTunnel:
      return "Tunnel";
    case Environment::kPublicBuilding:
      return "PublicBuilding";
  }
  return "?";
}

std::size_t paper_antenna_count(Environment e) {
  // Table 1, N_env row.
  switch (e) {
    case Environment::kMetro:
      return 1794;
    case Environment::kTrain:
      return 434;
    case Environment::kAirport:
      return 187;
    case Environment::kWorkspace:
      return 774;
    case Environment::kCommercial:
      return 469;
    case Environment::kStadium:
      return 451;
    case Environment::kExpo:
      return 230;
    case Environment::kHotel:
      return 28;
    case Environment::kHospital:
      return 53;
    case Environment::kTunnel:
      return 220;
    case Environment::kPublicBuilding:
      return 122;
  }
  ICN_REQUIRE(false, "unknown environment");
  return 0;
}

std::optional<Environment> classify_environment_from_name(
    std::string_view antenna_name) {
  std::string upper(antenna_name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  struct Keyword {
    const char* token;
    Environment env;
  };
  // Order matters: more specific tokens first (e.g. GARE before PARIS).
  static constexpr Keyword kKeywords[] = {
      {"METRO", Environment::kMetro},
      {"RER", Environment::kMetro},
      {"SUBWAY", Environment::kMetro},
      {"GARE", Environment::kTrain},
      {"TRAIN", Environment::kTrain},
      {"TGV", Environment::kTrain},
      {"AEROPORT", Environment::kAirport},
      {"AIRPORT", Environment::kAirport},
      {"TERMINAL", Environment::kAirport},
      {"BUREAU", Environment::kWorkspace},
      {"OFFICE", Environment::kWorkspace},
      {"SIEGE", Environment::kWorkspace},
      {"USINE", Environment::kWorkspace},
      {"CAMPUS_CORP", Environment::kWorkspace},
      {"CENTRE_CIAL", Environment::kCommercial},
      {"MALL", Environment::kCommercial},
      {"MAGASIN", Environment::kCommercial},
      {"BOUTIQUE", Environment::kCommercial},
      {"SHOP", Environment::kCommercial},
      {"STADE", Environment::kStadium},
      {"STADIUM", Environment::kStadium},
      {"ARENA", Environment::kStadium},
      {"EXPO", Environment::kExpo},
      {"CONGRES", Environment::kExpo},
      {"CONVENTION", Environment::kExpo},
      {"HOTEL", Environment::kHotel},
      {"HOPITAL", Environment::kHospital},
      {"HOSPITAL", Environment::kHospital},
      {"CHU", Environment::kHospital},
      {"TUNNEL", Environment::kTunnel},
      {"UNIVERSITE", Environment::kPublicBuilding},
      {"MUSEE", Environment::kPublicBuilding},
      {"MAIRIE", Environment::kPublicBuilding},
      {"PREFECTURE", Environment::kPublicBuilding},
  };
  for (const auto& kw : kKeywords) {
    if (upper.find(kw.token) != std::string::npos) return kw.env;
  }
  return std::nullopt;
}

}  // namespace icn::net
