#include "quality/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.h"

namespace {

using icn::probe::ServiceSession;
using icn::quality::Action;
using icn::quality::Defect;
using icn::quality::Field;
using icn::quality::RecordValidator;
using icn::quality::ValidatorParams;
using icn::quality::Verdict;

ValidatorParams study_params() {
  ValidatorParams p;
  p.antenna_ids = {100, 101, 102, 200, 201};
  p.num_services = 6;
  p.num_hours = 48;
  return p;
}

ServiceSession clean_record() {
  return ServiceSession{.antenna_id = 101,
                        .service = 3,
                        .hour = 12,
                        .down_bytes = 5.0e6,
                        .up_bytes = 1.0e6};
}

TEST(RecordValidatorTest, AcceptsCleanRecordUntouched) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  const ServiceSession before = record;
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kAccepted);
  EXPECT_EQ(v.defect, Defect::kNone);
  EXPECT_EQ(record.antenna_id, before.antenna_id);
  EXPECT_EQ(record.hour, before.hour);
  EXPECT_EQ(record.down_bytes, before.down_bytes);
  EXPECT_EQ(record.up_bytes, before.up_bytes);
}

TEST(RecordValidatorTest, RejectsUnknownAntennaUntouched) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.antenna_id = 0x80000065;  // High-bit-flipped 101.
  const ServiceSession before = record;
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.field, Field::kAntennaId);
  EXPECT_EQ(v.defect, Defect::kUnknownAntenna);
  EXPECT_EQ(v.observed, static_cast<double>(before.antenna_id));
  EXPECT_EQ(record.antenna_id, before.antenna_id);  // Fatal => untouched.
}

TEST(RecordValidatorTest, EmptyRosterAcceptsAnyAntenna) {
  ValidatorParams p = study_params();
  p.antenna_ids.clear();
  const RecordValidator validator(p);
  ServiceSession record = clean_record();
  record.antenna_id = 0xDEADBEEF;
  EXPECT_EQ(validator.validate(record, 12).action, Action::kAccepted);
}

TEST(RecordValidatorTest, RejectsServiceOutOfAlphabet) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.service = 6;  // == num_services
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.field, Field::kService);
  EXPECT_EQ(v.defect, Defect::kServiceOutOfAlphabet);
}

TEST(RecordValidatorTest, RepairsClockSkewToBatchHour) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.hour = 15;  // Skewed; batch says 12.
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRepaired);
  EXPECT_EQ(v.field, Field::kHour);
  EXPECT_EQ(v.defect, Defect::kClockSkew);
  EXPECT_EQ(v.observed, 15.0);
  EXPECT_EQ(v.repaired_to, 12.0);
  EXPECT_EQ(record.hour, 12);
}

TEST(RecordValidatorTest, RejectsHourOutsideStudy) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.hour = 48;  // == num_hours; cannot be attributed to any slot.
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.defect, Defect::kHourOutOfStudy);
  EXPECT_EQ(record.hour, 48);

  record = clean_record();
  record.hour = -3;
  EXPECT_EQ(validator.validate(record, 12).defect, Defect::kHourOutOfStudy);
}

TEST(RecordValidatorTest, RepairsSignFlippedVolumeExactly) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.down_bytes = -5.0e6;
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRepaired);
  EXPECT_EQ(v.field, Field::kDownBytes);
  EXPECT_EQ(v.defect, Defect::kNegativeVolume);
  // The repair is the exact inverse of a sign flip: bits restored.
  EXPECT_EQ(record.down_bytes, 5.0e6);
  EXPECT_EQ(record.up_bytes, 1.0e6);
}

TEST(RecordValidatorTest, RejectsNonFiniteVolumes) {
  const RecordValidator validator(study_params());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ServiceSession record = clean_record();
    record.up_bytes = bad;
    const Verdict v = validator.validate(record, 12);
    EXPECT_EQ(v.action, Action::kRejected);
    EXPECT_EQ(v.field, Field::kUpBytes);
    EXPECT_EQ(v.defect, Defect::kNonFiniteVolume);
  }
}

TEST(RecordValidatorTest, RejectsVolumeOverflow) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.down_bytes = 2.0e12;  // Above the 1 TB default ceiling.
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.defect, Defect::kVolumeOverflow);
}

TEST(RecordValidatorTest, FatalDefectWinsOverRepairableOne) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.hour = 15;            // Repairable skew...
  record.up_bytes =            // ...but also a fatal NaN.
      std::numeric_limits<double>::quiet_NaN();
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.defect, Defect::kNonFiniteVolume);
  EXPECT_EQ(record.hour, 15);  // No partial repair on a rejected record.
}

TEST(RecordValidatorTest, MultipleRepairsReportFirstDefect) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.hour = 15;
  record.down_bytes = -5.0e6;
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRepaired);
  EXPECT_EQ(v.field, Field::kHour);  // Field order: hour before volumes.
  EXPECT_EQ(v.defect, Defect::kClockSkew);
  EXPECT_EQ(record.hour, 12);
  EXPECT_EQ(record.down_bytes, 5.0e6);  // Both repairs still applied.
}

TEST(RecordValidatorTest, SignFlipBeyondCeilingIsFatal) {
  const RecordValidator validator(study_params());
  ServiceSession record = clean_record();
  record.down_bytes = -2.0e12;  // Negating would still overflow.
  const Verdict v = validator.validate(record, 12);
  EXPECT_EQ(v.action, Action::kRejected);
  EXPECT_EQ(v.defect, Defect::kNegativeVolume);
}

TEST(RecordValidatorTest, ValidatesParams) {
  ValidatorParams p = study_params();
  p.max_volume_bytes = 0.0;
  EXPECT_THROW(RecordValidator{p}, icn::util::PreconditionError);
}

TEST(RecordValidatorTest, DeterministicAcrossCalls) {
  const RecordValidator validator(study_params());
  for (int trial = 0; trial < 3; ++trial) {
    ServiceSession record = clean_record();
    record.hour = 20;
    record.up_bytes = -1.0e6;
    const Verdict v = validator.validate(record, 12);
    EXPECT_EQ(v.action, Action::kRepaired);
    EXPECT_EQ(v.defect, Defect::kClockSkew);
    EXPECT_EQ(record.hour, 12);
    EXPECT_EQ(record.up_bytes, 1.0e6);
  }
}

}  // namespace
