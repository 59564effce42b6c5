// The eleven indoor-environment categories of Table 1, plus the name-keyword
// classifier the paper describes in Sec. 5.2.1 ("inspecting the names of the
// antennas, applying simple string manipulation to extract keywords").
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

namespace icn::net {

/// Indoor environment type of an ICN deployment site (Table 1).
enum class Environment : int {
  kMetro = 0,
  kTrain = 1,
  kAirport = 2,
  kWorkspace = 3,
  kCommercial = 4,
  kStadium = 5,
  kExpo = 6,
  kHotel = 7,
  kHospital = 8,
  kTunnel = 9,
  kPublicBuilding = 10,
};

/// Number of indoor environment categories.
inline constexpr std::size_t kNumEnvironments = 11;

/// All environments in Table 1 order.
[[nodiscard]] const std::array<Environment, kNumEnvironments>&
all_environments();

/// Human-readable name, e.g. "Metro".
[[nodiscard]] const char* environment_name(Environment e);

/// The number of ICN antennas the paper reports for this environment
/// (Table 1, N_env row; the total is 4,762).
[[nodiscard]] std::size_t paper_antenna_count(Environment e);

/// Classifies an environment from an MNO-style antenna name by keyword
/// extraction (the Sec. 5.2.1 procedure), e.g.
/// "IDF_METRO_CHATELET_HALL2_A3" -> kMetro. Case-insensitive; returns
/// nullopt when no known keyword occurs.
[[nodiscard]] std::optional<Environment> classify_environment_from_name(
    std::string_view antenna_name);

}  // namespace icn::net
