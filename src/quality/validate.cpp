#include "quality/validate.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace icn::quality {

const char* to_string(Field field) {
  switch (field) {
    case Field::kAntennaId: return "antenna_id";
    case Field::kService: return "service";
    case Field::kHour: return "hour";
    case Field::kDownBytes: return "down_bytes";
    case Field::kUpBytes: return "up_bytes";
  }
  return "?";
}

const char* to_string(Defect defect) {
  switch (defect) {
    case Defect::kNone: return "none";
    case Defect::kUnknownAntenna: return "unknown_antenna";
    case Defect::kServiceOutOfAlphabet: return "service_out_of_alphabet";
    case Defect::kHourOutOfStudy: return "hour_out_of_study";
    case Defect::kClockSkew: return "clock_skew";
    case Defect::kNegativeVolume: return "negative_volume";
    case Defect::kNonFiniteVolume: return "non_finite_volume";
    case Defect::kVolumeOverflow: return "volume_overflow";
  }
  return "?";
}

const char* to_string(Action action) {
  switch (action) {
    case Action::kAccepted: return "accepted";
    case Action::kRepaired: return "repaired";
    case Action::kRejected: return "rejected";
  }
  return "?";
}

RecordValidator::RecordValidator(ValidatorParams params)
    : params_(std::move(params)), sorted_ids_(params_.antenna_ids) {
  ICN_REQUIRE(params_.max_volume_bytes > 0.0, "max_volume_bytes must be > 0");
  std::sort(sorted_ids_.begin(), sorted_ids_.end());
}

bool RecordValidator::tracked(std::uint32_t antenna_id) const {
  if (sorted_ids_.empty()) return true;
  return std::binary_search(sorted_ids_.begin(), sorted_ids_.end(),
                            antenna_id);
}

void RecordValidator::repair_volume(double& bytes, Verdict& verdict,
                                    Field field) const {
  if (bytes >= 0.0) return;
  if (verdict.defect == Defect::kNone) {
    verdict.field = field;
    verdict.defect = Defect::kNegativeVolume;
    verdict.observed = bytes;
    verdict.repaired_to = -bytes;
  }
  bytes = -bytes;
  verdict.action = Action::kRepaired;
}

Verdict RecordValidator::validate(probe::ServiceSession& record,
                                  std::int64_t batch_hour) const {
  // Phase 1: fatal checks on a pristine record, in fixed field order. A
  // fatal defect must win over any repairable one so that the record is
  // returned untouched.
  Verdict verdict;
  if (!tracked(record.antenna_id)) {
    verdict.action = Action::kRejected;
    verdict.field = Field::kAntennaId;
    verdict.defect = Defect::kUnknownAntenna;
    verdict.observed = static_cast<double>(record.antenna_id);
    return verdict;
  }
  if (params_.num_services > 0 && record.service >= params_.num_services) {
    verdict.action = Action::kRejected;
    verdict.field = Field::kService;
    verdict.defect = Defect::kServiceOutOfAlphabet;
    verdict.observed = static_cast<double>(record.service);
    return verdict;
  }
  const bool hour_in_study =
      params_.num_hours <= 0 ||
      (record.hour >= 0 && record.hour < params_.num_hours);
  const bool hour_skewed = record.hour != batch_hour;
  if (hour_skewed && !hour_in_study) {
    // A skewed hour outside the study cannot sensibly be snapped back: it is
    // not attributable to any study slot.
    verdict.action = Action::kRejected;
    verdict.field = Field::kHour;
    verdict.defect = Defect::kHourOutOfStudy;
    verdict.observed = static_cast<double>(record.hour);
    return verdict;
  }
  // Dry-run the volume checks for fatal defects before mutating anything.
  const auto fatal_volume = [&](double bytes) {
    if (!std::isfinite(bytes)) return Defect::kNonFiniteVolume;
    if (bytes > params_.max_volume_bytes) return Defect::kVolumeOverflow;
    if (bytes < 0.0 && -bytes > params_.max_volume_bytes) {
      return Defect::kNegativeVolume;
    }
    return Defect::kNone;
  };
  if (const Defect d = fatal_volume(record.down_bytes); d != Defect::kNone) {
    verdict.action = Action::kRejected;
    verdict.field = Field::kDownBytes;
    verdict.defect = d;
    verdict.observed = record.down_bytes;
    return verdict;
  }
  if (const Defect d = fatal_volume(record.up_bytes); d != Defect::kNone) {
    verdict.action = Action::kRejected;
    verdict.field = Field::kUpBytes;
    verdict.defect = d;
    verdict.observed = record.up_bytes;
    return verdict;
  }

  // Phase 2: repairs, applied in the same field order. Only the first defect
  // is reported in the verdict (the ledger keeps one entry per record), but
  // every repairable field is fixed.
  if (hour_skewed) {
    verdict.action = Action::kRepaired;
    verdict.field = Field::kHour;
    verdict.defect = Defect::kClockSkew;
    verdict.observed = static_cast<double>(record.hour);
    verdict.repaired_to = static_cast<double>(batch_hour);
    record.hour = batch_hour;
  }
  repair_volume(record.down_bytes, verdict, Field::kDownBytes);
  repair_volume(record.up_bytes, verdict, Field::kUpBytes);
  return verdict;
}

}  // namespace icn::quality
