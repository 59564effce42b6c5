#include "util/calendar.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ((Date{1970, 1, 1}).days_since_epoch(), 0);
}

TEST(DateTest, KnownOffsets) {
  EXPECT_EQ((Date{1970, 1, 2}).days_since_epoch(), 1);
  EXPECT_EQ((Date{1969, 12, 31}).days_since_epoch(), -1);
  EXPECT_EQ((Date{2000, 3, 1}).days_since_epoch(), 11017);
}

TEST(DateTest, RoundTripAcrossYears) {
  for (std::int64_t d = -1000; d <= 30000; d += 37) {
    const Date date = Date::from_days_since_epoch(d);
    EXPECT_EQ(date.days_since_epoch(), d);
    EXPECT_TRUE(date.is_valid());
  }
}

TEST(DateTest, WeekdayKnownDates) {
  EXPECT_EQ((Date{1970, 1, 1}).weekday(), Weekday::kThursday);
  // The study starts Monday 21 Nov 2022.
  EXPECT_EQ((Date{2022, 11, 21}).weekday(), Weekday::kMonday);
  // The strike day, 19 Jan 2023, was a Thursday.
  EXPECT_EQ((Date{2023, 1, 19}).weekday(), Weekday::kThursday);
  // The paper's example weekends: 7-8 and 14-15 Jan 2023.
  EXPECT_EQ((Date{2023, 1, 7}).weekday(), Weekday::kSaturday);
  EXPECT_EQ((Date{2023, 1, 8}).weekday(), Weekday::kSunday);
  EXPECT_EQ((Date{2023, 1, 14}).weekday(), Weekday::kSaturday);
  EXPECT_EQ((Date{2023, 1, 15}).weekday(), Weekday::kSunday);
}

TEST(DateTest, LeapYearValidity) {
  EXPECT_TRUE((Date{2020, 2, 29}).is_valid());
  EXPECT_FALSE((Date{2021, 2, 29}).is_valid());
  EXPECT_TRUE((Date{2000, 2, 29}).is_valid());   // divisible by 400
  EXPECT_FALSE((Date{1900, 2, 29}).is_valid());  // century, not by 400
  EXPECT_FALSE((Date{2022, 13, 1}).is_valid());
  EXPECT_FALSE((Date{2022, 4, 31}).is_valid());
}

TEST(DateTest, PlusDaysCrossesMonthAndYear) {
  EXPECT_EQ((Date{2022, 12, 31}).plus_days(1), (Date{2023, 1, 1}));
  EXPECT_EQ((Date{2023, 1, 1}).plus_days(-1), (Date{2022, 12, 31}));
  EXPECT_EQ((Date{2022, 11, 21}).plus_days(64), (Date{2023, 1, 24}));
}

TEST(DateTest, ToStringFormat) {
  EXPECT_EQ((Date{2023, 1, 4}).to_string(), "2023-01-04");
}

TEST(WeekdayTest, WeekendDetection) {
  EXPECT_TRUE(is_weekend(Weekday::kSaturday));
  EXPECT_TRUE(is_weekend(Weekday::kSunday));
  EXPECT_FALSE(is_weekend(Weekday::kMonday));
  EXPECT_FALSE(is_weekend(Weekday::kFriday));
}

TEST(DaysBetweenTest, Directional) {
  EXPECT_EQ(days_between(Date{2023, 1, 1}, Date{2023, 1, 11}), 10);
  EXPECT_EQ(days_between(Date{2023, 1, 11}, Date{2023, 1, 1}), -10);
}

TEST(DateRangeTest, StudyPeriodShape) {
  const DateRange period = study_period();
  // 21 Nov 2022 -> 24 Jan 2023 inclusive = 65 days.
  EXPECT_EQ(period.num_days(), 65);
  EXPECT_EQ(period.num_hours(), 65 * 24);
  EXPECT_EQ(period.date_at(0), (Date{2022, 11, 21}));
  EXPECT_EQ(period.date_at(64), (Date{2023, 1, 24}));
}

TEST(DateRangeTest, TemporalWindowShape) {
  const DateRange window = temporal_window();
  EXPECT_EQ(window.num_days(), 21);
  EXPECT_EQ(window.first(), (Date{2023, 1, 4}));
}

TEST(DateRangeTest, StrikeDayInsideBothRanges) {
  EXPECT_TRUE(study_period().contains(strike_day()));
  EXPECT_TRUE(temporal_window().contains(strike_day()));
}

TEST(DateRangeTest, IndexOfAndContains) {
  const DateRange period = study_period();
  EXPECT_EQ(period.index_of(Date{2022, 11, 21}), 0);
  EXPECT_EQ(period.index_of(Date{2023, 1, 19}), 59);
  EXPECT_FALSE(period.contains(Date{2023, 1, 25}));
  EXPECT_THROW(period.index_of(Date{2023, 2, 1}), PreconditionError);
}

TEST(DateRangeTest, RejectsInvertedRange) {
  EXPECT_THROW(DateRange(Date{2023, 1, 2}, Date{2023, 1, 1}),
               PreconditionError);
}

TEST(DateRangeTest, WeekdayAtMatchesDate) {
  const DateRange period = study_period();
  for (std::int64_t d = 0; d < period.num_days(); ++d) {
    EXPECT_EQ(period.weekday_at(d), period.date_at(d).weekday());
  }
}

}  // namespace
}  // namespace icn::util
