// Deep-packet-inspection service classification (Sec. 3): the MNO identifies
// the mobile service of each TCP/UDP session by DPI + proprietary traffic
// classifiers. Our classifier matches the TLS SNI / QUIC host of a flow
// against the service catalogue's signatures, tracking hit/miss statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "traffic/services.h"

namespace icn::probe {

/// SNI-based service classifier with observability counters.
class DpiClassifier {
 public:
  /// The catalogue must outlive the classifier.
  explicit DpiClassifier(const icn::traffic::ServiceCatalog& catalog);

  /// Classifies an SNI host into a catalogue service index; nullopt (and a
  /// miss counted) for unknown hosts.
  [[nodiscard]] std::optional<std::size_t> classify(std::string_view sni);

  /// Wire-level path: extracts the SNI from raw TLS ClientHello record
  /// bytes (see probe/tls_sni.h) and classifies it. Malformed records count
  /// as misses.
  [[nodiscard]] std::optional<std::size_t> classify_client_hello(
      std::span<const std::uint8_t> record);

  /// Number of successfully classified flows so far.
  [[nodiscard]] std::size_t classified() const { return classified_; }

  /// Number of flows that matched no signature.
  [[nodiscard]] std::size_t unmatched() const { return unmatched_; }

 private:
  const icn::traffic::ServiceCatalog* catalog_;
  std::size_t classified_ = 0;
  std::size_t unmatched_ = 0;
};

}  // namespace icn::probe
