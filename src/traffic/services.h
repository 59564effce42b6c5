// The mobile-service catalogue: M = 73 services spanning the activity range
// the paper describes (social networking, messaging, audio/video streaming,
// transportation, professional activities, well-being, ...).
//
// Each service carries:
//  * a category (used by the behavioural archetypes to shape service mixes),
//  * a global popularity weight (heavy-tailed, video-dominated, as in any
//    national mobile network),
//  * a DPI signature (an SNI-style domain the probe's classifier matches),
//  * a diurnal profile (hour-of-day modulation used by the temporal models).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace icn::traffic {

/// Functional category of a mobile service.
enum class ServiceCategory : int {
  kVideoStreaming = 0,
  kMusic,
  kSocial,
  kMessaging,
  kNavigation,
  kWork,
  kMail,
  kShopping,
  kAppStore,
  kCloud,
  kGaming,
  kNews,
  kSports,
  kEntertainment,
};

/// Number of service categories.
inline constexpr std::size_t kNumServiceCategories = 14;

/// Human-readable category name.
[[nodiscard]] const char* category_name(ServiceCategory c);

/// Hour-of-day usage shape of a service (before environment effects).
enum class DiurnalProfile : int {
  kFlat = 0,     ///< No hour preference.
  kMorning,      ///< Morning-heavy (news).
  kCommute,      ///< Peaks at 7:30-9:30 and 17:30-19:30 (music, transport).
  kWorkHours,    ///< 9:00-17:30 plateau (collaboration, mail).
  kDaytime,      ///< 10:00-20:00 plateau (shopping, social).
  kEvening,      ///< 18:00-23:00 peak (video streaming, gaming).
  kNight,        ///< Late evening into the night (long-form streaming).
  kPostEvent,    ///< Shifted ~2h after venue events (vehicular navigation).
};

/// One catalogued mobile service.
struct Service {
  std::string_view name;       ///< Display name, e.g. "Spotify".
  ServiceCategory category = ServiceCategory::kEntertainment;
  double popularity = 0.0;     ///< Relative share of nationwide traffic.
  std::string_view signature;  ///< SNI-style DPI signature, e.g. "spotify.com".
  DiurnalProfile diurnal = DiurnalProfile::kFlat;
};

/// The full 73-service catalogue used throughout the workbench.
class ServiceCatalog {
 public:
  /// Builds the fixed catalogue (M = 73).
  ServiceCatalog();

  /// Number of services (73).
  [[nodiscard]] std::size_t size() const { return services_.size(); }

  /// Service at index j. Requires j < size().
  [[nodiscard]] const Service& at(std::size_t j) const;

  /// Index of the service with the given display name (exact match).
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::string_view name) const;

  /// Index of the service whose DPI signature matches the given SNI host
  /// (suffix match: "api.spotify.com" matches "spotify.com").
  [[nodiscard]] std::optional<std::size_t> classify_sni(
      std::string_view host) const;

  /// Popularity weights normalized to sum to 1.
  [[nodiscard]] const std::vector<double>& popularity_shares() const {
    return popularity_shares_;
  }

  /// Indices of all services in a category.
  [[nodiscard]] std::vector<std::size_t> of_category(
      ServiceCategory c) const;

 private:
  std::vector<Service> services_;
  std::vector<double> popularity_shares_;
};

}  // namespace icn::traffic
