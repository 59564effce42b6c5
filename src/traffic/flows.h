// Session-level traffic synthesis: expands the hourly (antenna, service)
// volumes of the TemporalModel into individual IP flows, the input of the
// passive-probe measurement path (src/probe).
//
// Each flow carries a 5-tuple, an SNI-style host name (what the DPI
// classifier sees), a GTP-C ULI cell identity (how the probe geo-references
// the session to a BTS, Sec. 3), byte volumes split between downlink and
// uplink, and a start timestamp. The flows of one (antenna, service, hour)
// cell partition that cell's volume exactly, so probe-side aggregation must
// reproduce the TemporalModel tensor bit-for-bit — an end-to-end invariant
// the integration tests check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/temporal.h"

namespace icn::traffic {

/// Transport protocol of a flow.
enum class Protocol : std::uint8_t { kTcp = 6, kUdp = 17 };

/// One synthesized IP flow as a probe on the Gi/SGi interface would see it.
struct FlowRecord {
  std::uint32_t ecgi = 0;       ///< E-UTRAN cell id from the GTP-C ULI.
  std::int64_t start_hour = 0;  ///< Hour index into the study period.
  std::uint32_t src_ip = 0;     ///< UE address (private range).
  std::uint32_t dst_ip = 0;     ///< Service endpoint address.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 443;
  Protocol protocol = Protocol::kTcp;
  std::string sni;              ///< TLS SNI / QUIC host seen by the DPI.
  double down_bytes = 0.0;      ///< Downlink volume in bytes.
  double up_bytes = 0.0;        ///< Uplink volume in bytes.
  std::uint32_t duration_s = 0;
};

/// Deterministic flow synthesizer on top of a TemporalModel.
class FlowGenerator {
 public:
  /// The temporal model must outlive the generator. `ecgi_base` is the cell
  /// identity offset used when encoding antenna ids into ULIs.
  /// `unknown_sni_fraction` injects measurement-reality failures: that
  /// fraction of flows carries a host the DPI has no signature for (ESNI,
  /// new apps, raw-IP traffic) and must be dropped by the probe.
  FlowGenerator(const TemporalModel& temporal, std::uint64_t seed,
                std::uint32_t ecgi_base = 0x0010'0000,
                double unknown_sni_fraction = 0.0);

  /// ECGI encoding of an indoor antenna id (must match the probe's decoder).
  [[nodiscard]] std::uint32_t ecgi_of(std::uint32_t antenna_id) const {
    return ecgi_base_ + antenna_id;
  }

  /// All flows of one (antenna, service) pair within one hour of the study
  /// period. Flow volumes sum exactly to the temporal model's MB for that
  /// cell (converted to bytes). Deterministic per (seed, antenna, service,
  /// hour).
  [[nodiscard]] std::vector<FlowRecord> flows_for_hour(
      std::size_t antenna, std::size_t service, std::int64_t hour) const;

  /// Convenience: every flow of an antenna across all services for hours
  /// [first_hour, last_hour).
  [[nodiscard]] std::vector<FlowRecord> flows_for_antenna(
      std::size_t antenna, std::int64_t first_hour,
      std::int64_t last_hour) const;

 private:
  const TemporalModel* temporal_;
  std::uint64_t seed_;
  std::uint32_t ecgi_base_;
  double unknown_sni_fraction_;

  [[nodiscard]] std::vector<FlowRecord> make_flows(
      std::size_t antenna, std::size_t service, std::int64_t hour,
      double mb) const;
};

/// Mean flow size in MB for a service category (video flows are large,
/// messaging flows tiny). Exposed for tests.
[[nodiscard]] double mean_flow_mb(ServiceCategory c);

/// Downlink fraction of a service category's volume (video ~0.95,
/// messaging ~0.6, cloud uploads lower).
[[nodiscard]] double downlink_fraction(ServiceCategory c);

}  // namespace icn::traffic
