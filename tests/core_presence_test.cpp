#include "core/presence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "core/passes.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;
using time::kSecondsPerDay;

TEST(PresenceTest, EmptyDataset) {
  cdr::Dataset d;
  d.set_fleet_size(10);
  d.set_study_days(7);
  d.finalize();
  const DailyPresence p = analyze_presence(d);
  ASSERT_EQ(p.cars_fraction.size(), 7u);
  for (const double f : p.cars_fraction) EXPECT_EQ(f, 0.0);
  EXPECT_EQ(p.ever_touched_cells, 0u);
}

TEST(PresenceTest, SingleCarSingleDay) {
  const auto d = make_dataset({conn(0, 0, at(3, 12), 60)}, 4, 7);
  const DailyPresence p = analyze_presence(d);
  EXPECT_DOUBLE_EQ(p.cars_fraction[3], 0.25);
  EXPECT_DOUBLE_EQ(p.cars_fraction[2], 0.0);
  EXPECT_DOUBLE_EQ(p.cells_fraction[3], 1.0);  // 1 of 1 ever-touched
  EXPECT_EQ(p.ever_touched_cells, 1u);
}

TEST(PresenceTest, MultiDayConnectionMarksAllDays) {
  // A connection straddling midnight counts the car on both days.
  const auto d = make_dataset(
      {conn(0, 0, at(2, 23, 30), 2 * 3600)}, 2, 7);
  const DailyPresence p = analyze_presence(d);
  EXPECT_DOUBLE_EQ(p.cars_fraction[2], 0.5);
  EXPECT_DOUBLE_EQ(p.cars_fraction[3], 0.5);
  EXPECT_DOUBLE_EQ(p.cars_fraction[4], 0.0);
}

TEST(PresenceTest, CellDenominatorIsEverTouched) {
  // S4: "% of cells, out of all the cells that had cars connect to them".
  const auto d = make_dataset(
      {
          conn(0, 10, at(0, 8), 60),
          conn(0, 11, at(0, 9), 60),
          conn(0, 10, at(1, 8), 60),  // day 1 touches only cell 10
      },
      1, 2);
  const DailyPresence p = analyze_presence(d);
  EXPECT_EQ(p.ever_touched_cells, 2u);
  EXPECT_DOUBLE_EQ(p.cells_fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(p.cells_fraction[1], 0.5);
}

TEST(PresenceTest, WeekdayBucketsCorrect) {
  // Day 0 = Monday, day 5 = Saturday in study time.
  const auto d = make_dataset(
      {
          conn(0, 0, at(0, 8), 60),   // Monday
          conn(0, 0, at(7, 8), 60),   // Monday week 2
          conn(0, 0, at(5, 8), 60),   // Saturday
      },
      1, 14);
  const DailyPresence p = analyze_presence(d);
  const auto mon = static_cast<std::size_t>(time::Weekday::kMonday);
  const auto sat = static_cast<std::size_t>(time::Weekday::kSaturday);
  const auto sun = static_cast<std::size_t>(time::Weekday::kSunday);
  EXPECT_DOUBLE_EQ(p.cars_by_weekday[mon].mean, 1.0);   // both Mondays
  EXPECT_DOUBLE_EQ(p.cars_by_weekday[sat].mean, 0.5);   // one of two Saturdays
  EXPECT_DOUBLE_EQ(p.cars_by_weekday[sun].mean, 0.0);
}

TEST(PresenceTest, OverallMeanAveragesDays) {
  const auto d = make_dataset(
      {
          conn(0, 0, at(0, 8), 60),
          conn(1, 0, at(0, 9), 60),
          conn(0, 0, at(1, 8), 60),
      },
      2, 2);
  const DailyPresence p = analyze_presence(d);
  // Day 0: 100%, day 1: 50% -> mean 75%.
  EXPECT_DOUBLE_EQ(p.cars_overall.mean, 0.75);
  EXPECT_GT(p.cars_overall.stdev, 0.0);
}

TEST(PresenceTest, TrendDetectsGrowth) {
  // Growing presence: day d has car 0..d.
  std::vector<cdr::Connection> records;
  for (int day = 0; day < 10; ++day) {
    for (std::uint32_t car = 0; car <= static_cast<std::uint32_t>(day); ++car) {
      records.push_back(conn(car, 0, at(day, 8), 60));
    }
  }
  const auto d = make_dataset(std::move(records), 10, 10);
  const DailyPresence p = analyze_presence(d);
  EXPECT_NEAR(p.cars_trend.slope, 0.1, 1e-9);
  EXPECT_NEAR(p.cars_trend.r_squared, 1.0, 1e-9);
}

TEST(PresenceTest, FractionsAlwaysInUnitRange) {
  const auto d = make_dataset(
      {
          conn(0, 0, at(0, 8), 60),
          conn(0, 0, at(0, 9), 60),  // same car twice: no double count
      },
      1, 1);
  const DailyPresence p = analyze_presence(d);
  EXPECT_DOUBLE_EQ(p.cars_fraction[0], 1.0);
}

TEST(PresenceTest, ClampsRecordsBeyondStudy) {
  // A record whose interval extends past the declared end must not crash
  // or create extra days.
  const auto d = make_dataset({conn(0, 0, at(6, 23, 50), 7200)}, 1, 7);
  const DailyPresence p = analyze_presence(d);
  ASSERT_EQ(p.cars_fraction.size(), 7u);
  EXPECT_DOUBLE_EQ(p.cars_fraction[6], 1.0);
}

TEST(PresenceTest, DenseKernelMatchesPerCellDaySetReference) {
  // 90 days, so every cell's day set spans two 64-bit words. Cell 45's only
  // record has a non-positive duration: it is touched but present on no
  // day. Records before the start and past the end clamp onto the first and
  // last day.
  constexpr int kDays = 90;
  constexpr std::uint32_t kFleet = 50;
  const time::Seconds horizon = time::Seconds{kDays} * kSecondsPerDay;
  std::mt19937_64 rng(90);
  std::vector<cdr::Connection> records = {
      conn(0, 45, at(10, 12), 0),
      conn(1, 2, -3 * kSecondsPerDay, 600),
      conn(1, 3, at(63, 23, 50), 2 * kSecondsPerDay),  // days 63..65
      conn(2, 2, horizon + 500, 60),
  };
  for (std::uint32_t car = 3; car < kFleet; ++car) {
    for (int i = 0; i < 25; ++i) {
      const time::Seconds start =
          static_cast<time::Seconds>(rng() % static_cast<std::uint64_t>(
                                                 horizon + 2 * kSecondsPerDay)) -
          kSecondsPerDay;
      const auto duration =
          static_cast<std::int32_t>(rng() % (3 * kSecondsPerDay)) - 100;
      records.push_back(
          conn(car, static_cast<std::uint32_t>(rng() % 40), start, duration));
    }
  }
  const auto d = make_dataset(records, kFleet, kDays);

  // Reference: per car and per cell the std::set of days an interval
  // overlaps, with the clamps stated explicitly.
  std::map<std::uint32_t, std::set<std::int64_t>> cell_days;
  std::map<std::uint32_t, std::set<std::int64_t>> car_days;
  for (const cdr::Connection& c : d.all()) {
    auto& cell = cell_days[c.cell.value];  // touched even with no day
    if (c.duration_s <= 0) continue;
    auto& car = car_days[c.car.value];
    for (std::int64_t day = 0; day < kDays; ++day) {
      const time::Seconds lo = day * kSecondsPerDay;
      const bool overlaps = c.start < lo + kSecondsPerDay && c.end() > lo;
      const bool clamped = (day == 0 && c.end() <= 0) ||
                           (day == kDays - 1 && c.start >= horizon);
      if (overlaps || clamped) {
        cell.insert(day);
        car.insert(day);
      }
    }
  }
  ASSERT_TRUE(cell_days.count(45));
  EXPECT_TRUE(cell_days[45].empty());
  std::vector<std::uint32_t> cars_per_day(kDays, 0);
  std::vector<std::uint32_t> cells_per_day(kDays, 0);
  for (const auto& [car, days] : car_days) {
    for (const std::int64_t day : days) ++cars_per_day[day];
  }
  for (const auto& [cell, days] : cell_days) {
    for (const std::int64_t day : days) ++cells_per_day[day];
  }
  const auto check = [&](const DailyPresence& p, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(p.ever_touched_cells, cell_days.size());
    ASSERT_EQ(p.cars_fraction.size(), static_cast<std::size_t>(kDays));
    for (std::size_t day = 0; day < kDays; ++day) {
      EXPECT_EQ(p.cars_fraction[day],
                static_cast<double>(cars_per_day[day]) / kFleet)
          << "day " << day;
      EXPECT_EQ(p.cells_fraction[day],
                static_cast<double>(cells_per_day[day]) /
                    static_cast<double>(cell_days.size()))
          << "day " << day;
    }
  };

  check(analyze_presence(d), "analyze_presence");
  // Pre-sized below and above the cells in use, split across partials.
  for (const std::size_t cells : {std::size_t{0}, std::size_t{5},
                                  std::size_t{64}}) {
    PresenceAccumulator head(kDays, cells);
    PresenceAccumulator tail(kDays, cells / 2);
    d.for_each_car([&](CarId car, std::span<const cdr::Connection> span) {
      (car.value < kFleet / 2 ? head : tail).add_car(car, span);
    });
    head.merge(std::move(tail));
    check(head.finalize(kFleet), "merged partials");
  }
}

}  // namespace
}  // namespace ccms::core
