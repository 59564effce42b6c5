// The passive measurement probe (Sec. 3): observes flows on the Gi/SGi/Gn
// interfaces, geo-references each to a BTS via the GTP-C ULI, identifies the
// mobile service via DPI, and emits per-session service records.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "probe/dpi.h"
#include "probe/gtp.h"
#include "traffic/flows.h"

namespace icn::probe {

/// One geo-referenced, service-classified IP session.
struct ServiceSession {
  std::uint32_t antenna_id = 0;  ///< BTS resolved from the ULI.
  std::size_t service = 0;       ///< Catalogue service index from DPI.
  std::int64_t hour = 0;         ///< Hour index of the session start.
  double down_bytes = 0.0;
  double up_bytes = 0.0;

  /// Total session volume in MB (downlink + uplink, as in the T matrix).
  [[nodiscard]] double volume_mb() const {
    return (down_bytes + up_bytes) / 1.0e6;
  }
};

/// Passive probe: flow records in, service sessions out.
class PassiveProbe {
 public:
  /// Decoder and classifier must outlive the probe.
  PassiveProbe(const UliDecoder& uli, DpiClassifier& dpi);

  /// Processes one flow; nullopt when the cell is unknown (counted here) or
  /// the DPI cannot identify the service (counted by the classifier).
  [[nodiscard]] std::optional<ServiceSession> observe(
      const icn::traffic::FlowRecord& flow);

  /// Processes a batch, keeping only resolvable sessions.
  [[nodiscard]] std::vector<ServiceSession> observe_all(
      std::span<const icn::traffic::FlowRecord> flows);

  /// Flows dropped because the ULI cell was not registered.
  [[nodiscard]] std::size_t unknown_location() const {
    return unknown_location_;
  }

 private:
  const UliDecoder* uli_;
  DpiClassifier* dpi_;
  std::size_t unknown_location_ = 0;
};

}  // namespace icn::probe
