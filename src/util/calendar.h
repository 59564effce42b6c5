// Minimal proleptic-Gregorian calendar, sufficient for the study period of
// the paper (21 Nov 2022 -> 24 Jan 2023) and the temporal analysis window
// (04 Jan -> 24 Jan 2023).
//
// Conversions use Howard Hinnant's civil-days algorithms; day 0 of the epoch
// is 1970-01-01 (a Thursday).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace icn::util {

/// Day of week, ISO numbering semantics but 0-based from Monday.
enum class Weekday : int {
  kMonday = 0,
  kTuesday = 1,
  kWednesday = 2,
  kThursday = 3,
  kFriday = 4,
  kSaturday = 5,
  kSunday = 6,
};

/// True for Saturday / Sunday.
[[nodiscard]] bool is_weekend(Weekday d);

/// A civil (proleptic Gregorian) date.
struct Date {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31, must be valid for the month

  /// Days since 1970-01-01 (can be negative).
  [[nodiscard]] std::int64_t days_since_epoch() const;

  /// Inverse of days_since_epoch.
  [[nodiscard]] static Date from_days_since_epoch(std::int64_t days);

  /// Day of week of this date.
  [[nodiscard]] Weekday weekday() const;

  /// This date shifted by n days (n may be negative).
  [[nodiscard]] Date plus_days(std::int64_t n) const;

  /// "YYYY-MM-DD".
  [[nodiscard]] std::string to_string() const;

  /// True when year/month/day form a real calendar date.
  [[nodiscard]] bool is_valid() const;

  friend auto operator<=>(const Date&, const Date&) = default;
};

/// Number of days from `from` to `to` (to - from; negative if to < from).
[[nodiscard]] std::int64_t days_between(const Date& from, const Date& to);

/// A contiguous range of whole days, with hour indexing helpers.
/// Hour index h in [0, num_hours()) corresponds to day h/24, hour-of-day h%24.
class DateRange {
 public:
  /// Inclusive range [first, last]. Requires first <= last and valid dates.
  DateRange(Date first, Date last);

  [[nodiscard]] const Date& first() const { return first_; }
  [[nodiscard]] const Date& last() const { return last_; }
  [[nodiscard]] std::int64_t num_days() const { return num_days_; }
  [[nodiscard]] std::int64_t num_hours() const { return num_days_ * 24; }

  /// Date of day index d in [0, num_days()).
  [[nodiscard]] Date date_at(std::int64_t d) const;
  /// Weekday of day index d.
  [[nodiscard]] Weekday weekday_at(std::int64_t d) const;
  /// True when the given date falls inside the range.
  [[nodiscard]] bool contains(const Date& d) const;
  /// Day index of a date inside the range. Requires contains(d).
  [[nodiscard]] std::int64_t index_of(const Date& d) const;

 private:
  Date first_;
  Date last_;
  std::int64_t num_days_;
};

/// The paper's full measurement window: 21 Nov 2022 -> 24 Jan 2023 (65 days).
[[nodiscard]] DateRange study_period();

/// The temporal-analysis window of Figs. 10-11: 04 Jan -> 24 Jan 2023.
[[nodiscard]] DateRange temporal_window();

/// The French national general-strike day called out in Sec. 6: 19 Jan 2023.
[[nodiscard]] Date strike_day();

}  // namespace icn::util
