// Record-level data quality: typed per-field validation of ServiceSession
// records before they enter the hourly (antenna x service) tensor.
//
// Production probes emit per-record noise — mangled antenna ids, clock skew
// against the batch watermark, sign-flipped byte counters, out-of-alphabet
// service indices — that batch-level structural checks cannot see. The
// validator classifies every defect as repairable (the original value is
// recoverable from context: snap a skewed hour to the batch hour, negate a
// sign-flipped volume) or fatal (the record carries no trustworthy cell
// address and must be quarantined). Repairs are exact inverses of the
// corresponding fault-model mutations, which is what lets chaos tests demand
// bit-exact convergence of repaired runs (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "probe/probe.h"

namespace icn::quality {

/// Which ServiceSession field a defect was found in.
enum class Field : std::uint8_t {
  kAntennaId = 0,
  kService = 1,
  kHour = 2,
  kDownBytes = 3,
  kUpBytes = 4,
};

/// Why a record was repaired or rejected.
enum class Defect : std::uint8_t {
  kNone = 0,
  /// antenna_id not in the study's tracked set — no trustworthy cell address.
  kUnknownAntenna = 1,
  /// service index >= the catalogue size.
  kServiceOutOfAlphabet = 2,
  /// hour outside [0, num_hours) — not attributable to any study slot.
  kHourOutOfStudy = 3,
  /// hour differs from the batch's event hour (epoch skew); repair snaps it.
  kClockSkew = 4,
  /// Finite negative byte counter (sign flip); repair negates it back.
  kNegativeVolume = 5,
  /// NaN or infinite byte counter — the original magnitude is gone.
  kNonFiniteVolume = 6,
  /// Byte counter above the physically plausible ceiling.
  kVolumeOverflow = 7,
};

/// What the validator did with a record.
enum class Action : std::uint8_t {
  kAccepted = 0,  ///< Clean; record untouched.
  kRepaired = 1,  ///< Defect(s) found and fixed in place.
  kRejected = 2,  ///< Fatal defect; record untouched, caller must drop it.
};

const char* to_string(Field field);
const char* to_string(Defect defect);
const char* to_string(Action action);

/// Validation policy. Zero-initialised limits mean "no constraint".
struct ValidatorParams {
  /// Tracked antenna ids; empty accepts any id (single-feed ingest without a
  /// fixed roster).
  std::vector<std::uint32_t> antenna_ids;
  /// Service-catalogue size; records with service >= num_services are fatal.
  std::size_t num_services = 0;
  /// Study length; hours outside [0, num_hours) are fatal.
  std::int64_t num_hours = 0;
  /// Largest plausible per-session byte counter (default 1 TB).
  double max_volume_bytes = 1.0e12;
};

/// The validator's judgement of one record. `observed` holds the defective
/// value reinterpreted as a double (bit-cast for integral fields) and
/// `repaired_to` the value written back, so the ledger can show provenance
/// without keeping the record alive.
struct Verdict {
  Action action = Action::kAccepted;
  Field field = Field::kAntennaId;   ///< First defective field (if any).
  Defect defect = Defect::kNone;     ///< First defect found.
  double observed = 0.0;
  double repaired_to = 0.0;
};

/// Stateless-per-record validator. validate() is const and deterministic:
/// the same record and batch hour always produce the same verdict, so
/// equal-seed chaos runs replay identical quarantine ledgers.
class RecordValidator {
 public:
  explicit RecordValidator(ValidatorParams params);

  /// Checks `record` against the policy. Fatal defects leave the record
  /// untouched and return kRejected; repairable defects are fixed in place
  /// (first defect reported in the verdict) and return kRepaired. Field check
  /// order is fixed: antenna, service, hour, down_bytes, up_bytes.
  [[nodiscard]] Verdict validate(probe::ServiceSession& record,
                                 std::int64_t batch_hour) const;

  [[nodiscard]] const ValidatorParams& params() const { return params_; }

 private:
  [[nodiscard]] bool tracked(std::uint32_t antenna_id) const;
  /// Repairs a sign-flipped byte counter in place (fatal volume defects were
  /// screened out before this runs).
  void repair_volume(double& bytes, Verdict& verdict, Field field) const;

  ValidatorParams params_;
  std::vector<std::uint32_t> sorted_ids_;  ///< For O(log n) membership.
};

}  // namespace icn::quality
