// GTP-C User Location Information handling (Sec. 3 of the paper): every IP
// session is geo-referenced to a BTS by the ECGI carried in PDP Contexts /
// EPS Bearers on the GTP-C control plane. Here we model the ULI as an ECGI
// (cell identity) and provide the decoder the passive probe uses to map a
// cell identity back to an antenna.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace icn::probe {

/// User Location Information: the subset of the GTP-C IE the probes use.
struct Uli {
  std::uint16_t tac = 0;   ///< Tracking area code.
  std::uint32_t ecgi = 0;  ///< E-UTRAN cell global identity (28-bit value).
};

/// Maps ECGIs to operator antenna ids.
class UliDecoder {
 public:
  /// Registers a cell identity for an antenna. Re-registering the same ECGI
  /// for a different antenna throws (cell identities are unique).
  void register_cell(std::uint32_t ecgi, std::uint32_t antenna_id);

  /// Registers the contiguous range [base, base + count) mapped to antenna
  /// ids [0, count) — the encoding FlowGenerator uses.
  void register_range(std::uint32_t ecgi_base, std::uint32_t count);

  /// Antenna id of a cell identity, or nullopt for unknown cells.
  [[nodiscard]] std::optional<std::uint32_t> antenna_of(
      std::uint32_t ecgi) const;

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> cells_;
};

}  // namespace icn::probe
