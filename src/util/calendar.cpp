#include "util/calendar.h"

#include <array>
#include <cstdio>

#include "util/error.h"

namespace icn::util {
namespace {

bool is_leap(int y) { return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0); }

int days_in_month(int y, int m) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (m == 2 && is_leap(y)) return 29;
  return kDays[static_cast<std::size_t>(m - 1)];
}

}  // namespace

bool is_weekend(Weekday d) {
  return d == Weekday::kSaturday || d == Weekday::kSunday;
}

std::int64_t Date::days_since_epoch() const {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  const int y = year - (month <= 2 ? 1 : 0);
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<unsigned>(y - static_cast<int>(era) * 400);
  const unsigned doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

Date Date::from_days_since_epoch(std::int64_t days) {
  const std::int64_t z = days + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  return Date{static_cast<int>(y + (m <= 2 ? 1 : 0)), static_cast<int>(m),
              static_cast<int>(d)};
}

Weekday Date::weekday() const {
  // 1970-01-01 is a Thursday (index 3 from Monday).
  const std::int64_t d = days_since_epoch() + 3;
  const std::int64_t w = ((d % 7) + 7) % 7;
  return static_cast<Weekday>(w);
}

Date Date::plus_days(std::int64_t n) const {
  return from_days_since_epoch(days_since_epoch() + n);
}

std::string Date::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

bool Date::is_valid() const {
  if (month < 1 || month > 12) return false;
  if (day < 1 || day > days_in_month(year, month)) return false;
  return true;
}

std::int64_t days_between(const Date& from, const Date& to) {
  return to.days_since_epoch() - from.days_since_epoch();
}

DateRange::DateRange(Date first, Date last)
    : first_(first), last_(last), num_days_(days_between(first, last) + 1) {
  ICN_REQUIRE(first.is_valid() && last.is_valid(), "DateRange valid dates");
  ICN_REQUIRE(num_days_ >= 1, "DateRange first <= last");
}

Date DateRange::date_at(std::int64_t d) const {
  ICN_REQUIRE(d >= 0 && d < num_days_, "DateRange day index");
  return first_.plus_days(d);
}

Weekday DateRange::weekday_at(std::int64_t d) const {
  return date_at(d).weekday();
}

bool DateRange::contains(const Date& d) const {
  return d >= first_ && d <= last_;
}

std::int64_t DateRange::index_of(const Date& d) const {
  ICN_REQUIRE(contains(d), "date outside range");
  return days_between(first_, d);
}

DateRange study_period() {
  return DateRange(Date{2022, 11, 21}, Date{2023, 1, 24});
}

DateRange temporal_window() {
  return DateRange(Date{2023, 1, 4}, Date{2023, 1, 24});
}

Date strike_day() { return Date{2023, 1, 19}; }

}  // namespace icn::util
