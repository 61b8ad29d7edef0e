#include "core/concurrency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cdr/clean.h"
#include "core/passes.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;
using time::kSecondsPerDay;

TEST(ConcurrencyTest, EmptyDataset) {
  cdr::Dataset d;
  d.set_study_days(7);
  d.finalize();
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  EXPECT_TRUE(grid.cells().empty());
  EXPECT_EQ(grid.find(CellId{0}), nullptr);
}

TEST(ConcurrencyTest, SingleCarSingleBin) {
  // One week study; one car connected 08:00-08:10 Monday on cell 3.
  const auto d = make_dataset({conn(0, 3, at(0, 8), 600)}, 1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  ASSERT_EQ(grid.cells().size(), 1u);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const int bin = time::bin15_of_week(at(0, 8));
  // One observation in one occurrence of that bin -> average 1.0.
  EXPECT_DOUBLE_EQ(profile->weekly[static_cast<std::size_t>(bin)], 1.0);
  EXPECT_EQ(profile->observations, 1u);
  EXPECT_DOUBLE_EQ(profile->peak, 1.0);
}

TEST(ConcurrencyTest, TwoCarsStraddlingSameBin) {
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 2), 300),
          conn(1, 3, at(0, 8, 9), 300),
      },
      2, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(profile->weekly[static_cast<std::size_t>(bin)], 2.0);
}

TEST(ConcurrencyTest, SameCarCountedOncePerBin) {
  // The paper counts cars whose *aggregated sessions* straddle a bin: two
  // short connections of one car inside one bin count once.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 1), 60),
          conn(0, 3, at(0, 8, 10), 60),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(
      grid.find(CellId{3})->weekly[static_cast<std::size_t>(bin)], 1.0);
}

TEST(ConcurrencyTest, ConnectionSpanningBinsCountsEach) {
  // 08:10 + 10 min straddles bins 32 and 33.
  const auto d = make_dataset({conn(0, 3, at(0, 8, 10), 600)}, 1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->weekly[32], 1.0);
  EXPECT_DOUBLE_EQ(profile->weekly[33], 1.0);
  EXPECT_EQ(profile->observations, 2u);
}

TEST(ConcurrencyTest, AveragesOverWeeks) {
  // 14-day study: car present in the Monday 08:00 bin only in week 0.
  const auto d = make_dataset({conn(0, 3, at(0, 8), 600)}, 1, 14);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(
      grid.find(CellId{3})->weekly[static_cast<std::size_t>(bin)], 0.5);
}

TEST(ConcurrencyTest, DailyFoldAveragesDays) {
  // 7-day study: Monday and Tuesday 08:00 bins occupied -> daily[32] = 2/7.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 600),
          conn(0, 3, at(1, 8), 600),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_NEAR(profile->daily[32], 2.0 / 7.0, 1e-9);
}

TEST(ConcurrencyTest, CellsSortedAscending) {
  const auto d = make_dataset(
      {
          conn(0, 9, at(0, 8), 60),
          conn(0, 2, at(0, 9), 60),
          conn(0, 5, at(0, 10), 60),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  ASSERT_EQ(grid.cells().size(), 3u);
  EXPECT_EQ(grid.cells()[0].cell.value, 2u);
  EXPECT_EQ(grid.cells()[1].cell.value, 5u);
  EXPECT_EQ(grid.cells()[2].cell.value, 9u);
  EXPECT_NE(grid.find(CellId{5}), nullptr);
  EXPECT_EQ(grid.find(CellId{7}), nullptr);
}

TEST(ConcurrencyTest, MeanAndPeakConsistent) {
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 600),
          conn(1, 3, at(0, 8), 600),
          conn(0, 3, at(2, 20), 600),
      },
      2, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->peak, 2.0);
  EXPECT_GT(profile->mean, 0.0);
  EXPECT_LT(profile->mean, profile->peak);
}

TEST(ConcurrencyTest, SessionGapMergesAcrossBins) {
  // Two connections 20 s apart around a bin boundary: the aggregated
  // session covers both bins even though neither connection alone does...
  // actually each leg is marked individually; the gap lies inside the
  // session but no leg covers it. Verify both covered bins count once.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 13), 100),   // bin 32
          conn(0, 3, at(0, 8, 16), 100),   // bin 33 (gap ~80 s)
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->weekly[32], 1.0);
  EXPECT_DOUBLE_EQ(profile->weekly[33], 1.0);
}

TEST(ConcurrencyTest, SameWeekBinInTwoWeeksCountsTwice) {
  // 21-day study: the car is on cell 3 at Monday 08:00 in weeks 1 and 3.
  // The two visits are distinct absolute bins that fold onto one bin of
  // the week: 2 observations over 3 occurrences of that bin.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 600),
          conn(0, 3, at(14, 8), 600),
      },
      1, 21);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const auto bin = static_cast<std::size_t>(time::bin15_of_week(at(0, 8)));
  EXPECT_EQ(profile->observations, 2u);
  EXPECT_DOUBLE_EQ(profile->weekly[bin], 2.0 / 3.0);
}

TEST(ConcurrencyTest, TwoLegsInOneAbsoluteBinCountOnce) {
  // Two legs of one car in the Monday 08:00 bin, far enough apart to be
  // separate sessions, count once for that absolute bin; the same bin a
  // week later adds the second observation.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 1), 60),
          conn(0, 3, at(0, 8, 12), 60),
          conn(0, 3, at(7, 8, 5), 60),
      },
      1, 14);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const auto bin = static_cast<std::size_t>(time::bin15_of_week(at(0, 8)));
  EXPECT_EQ(profile->observations, 2u);
  EXPECT_DOUBLE_EQ(profile->weekly[bin], 1.0);
}

TEST(ConcurrencyTest, NinetyDayGridMatchesNaiveReference) {
  // 90 days = 12 weeks + 6 days, so the last week is partial and bins of
  // the week occur 12 or 13 times. The reference keeps each car's set of
  // (cell, absolute bin) pairs its session legs overlap, then averages the
  // per-cell totals over the occurrences of each bin of the week.
  const sim::Study& study =
      test::cached_study({.seed = 3, .fleet = 120, .days = 90, .quick = true});
  cdr::CleanReport report;
  const cdr::Dataset cleaned = cdr::clean(study.raw, {}, report);
  const int days = cleaned.study_days();
  ASSERT_EQ(days, 90);
  const std::int64_t bins = std::int64_t{days} * time::kBins15PerDay;

  std::map<std::uint32_t, std::vector<std::int64_t>> totals;
  cleaned.for_each_car([&](CarId, std::span<const cdr::Connection> records) {
    std::set<std::pair<std::uint32_t, std::int64_t>> seen;
    for (const cdr::Session& s : cdr::aggregate_sessions(records)) {
      for (const cdr::SessionLeg& leg : s.legs) {
        // Overlap test over every bin near the leg, not a bin formula.
        const std::int64_t near = leg.when.start / time::kSecondsPerBin15;
        const std::int64_t far = leg.when.end / time::kSecondsPerBin15 + 1;
        for (std::int64_t b = std::max<std::int64_t>(0, near - 1);
             b <= far && b < bins; ++b) {
          const time::Seconds lo = b * time::kSecondsPerBin15;
          if (leg.when.start < lo + time::kSecondsPerBin15 &&
              leg.when.end > lo) {
            seen.insert({leg.cell.value, b});
          }
        }
      }
    }
    for (const auto& [cell, b] : seen) {
      auto& week = totals[cell];
      week.resize(time::kBins15PerWeek, 0);
      const std::int64_t day = b / time::kBins15PerDay;
      ++week[static_cast<std::size_t>((day % time::kDaysPerWeek) *
                                          time::kBins15PerDay +
                                      b % time::kBins15PerDay)];
    }
  });
  std::vector<int> occurrences(time::kBins15PerWeek, 0);
  for (int day = 0; day < days; ++day) {
    for (int b = 0; b < time::kBins15PerDay; ++b) {
      ++occurrences[static_cast<std::size_t>(
          (day % time::kDaysPerWeek) * time::kBins15PerDay + b)];
    }
  }

  const ConcurrencyGrid grid = ConcurrencyGrid::build(cleaned);
  ASSERT_EQ(grid.cells().size(), totals.size());
  for (const auto& [cell, week] : totals) {
    SCOPED_TRACE(testing::Message() << "cell=" << cell);
    const CellConcurrency* profile = grid.find(CellId{cell});
    ASSERT_NE(profile, nullptr);
    std::uint64_t observations = 0;
    for (std::size_t w = 0; w < week.size(); ++w) {
      observations += static_cast<std::uint64_t>(week[w]);
      EXPECT_EQ(profile->weekly[w],
                static_cast<double>(week[w]) / occurrences[w])
          << "week bin " << w;
    }
    EXPECT_EQ(profile->observations, observations);
    for (int b = 0; b < time::kBins15PerDay; ++b) {
      std::int64_t total = 0;
      int occ = 0;
      for (int dow = 0; dow < time::kDaysPerWeek; ++dow) {
        const auto w =
            static_cast<std::size_t>(dow * time::kBins15PerDay + b);
        total += week[w];
        occ += occurrences[w];
      }
      EXPECT_EQ(profile->daily[static_cast<std::size_t>(b)],
                static_cast<double>(total) / occ)
          << "bin of day " << b;
    }
    EXPECT_EQ(profile->peak, *std::max_element(profile->weekly.begin(),
                                               profile->weekly.end()));
  }
}

/// Naive Fig 10/11 counts: per car, the std::set of (cell, absolute bin)
/// pairs its records straddle (bins clamped into the study, as the grid
/// does), folded onto (cell << kWeekBinBits) | bin_of_week and counted.
std::map<std::uint64_t, std::uint64_t> naive_week_counts(
    const std::vector<std::vector<cdr::Connection>>& cars, int days) {
  const std::int64_t bins = std::int64_t{days} * time::kBins15PerDay;
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const auto& records : cars) {
    std::set<std::pair<std::uint32_t, std::int64_t>> seen;
    for (const cdr::Connection& c : records) {
      const std::int64_t b0 = std::clamp<std::int64_t>(
          c.start / time::kSecondsPerBin15, 0, bins - 1);
      const std::int64_t b1 = std::clamp<std::int64_t>(
          (c.end() - 1) / time::kSecondsPerBin15, 0, bins - 1);
      for (std::int64_t b = b0; b <= b1; ++b) seen.insert({c.cell.value, b});
    }
    for (const auto& [cell, b] : seen) {
      ++counts[(std::uint64_t{cell} << kWeekBinBits) |
               static_cast<std::uint64_t>(b % time::kBins15PerWeek)];
    }
  }
  return counts;
}

/// Folds `cars` through ConcurrencyCountsAccumulator in two partials split
/// at `split` (merged in car order) and returns the run-length counts.
std::map<std::uint64_t, std::uint64_t> accumulated_week_counts(
    const std::vector<std::vector<cdr::Connection>>& cars, int days,
    std::size_t split) {
  ConcurrencyCountsAccumulator head(days);
  ConcurrencyCountsAccumulator tail(days);
  for (std::size_t i = 0; i < cars.size(); ++i) {
    (i < split ? head : tail).add_car(cars[i].front().car, cars[i]);
  }
  head.merge(std::move(tail));
  const auto [keys, counts] = std::move(head).take_counts();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::size_t i = 0; i < keys.size(); ++i) out[keys[i]] = counts[i];
  EXPECT_EQ(out.size(), keys.size()) << "duplicate keys";
  return out;
}

TEST(ConcurrencyTest, CountsKernelMatchesPerCarSetReference) {
  constexpr int kDays = 14;
  const time::Seconds end = time::Seconds{kDays} * kSecondsPerDay;
  const std::vector<std::vector<cdr::Connection>> cars = {
      // A-B-A switches inside one bin, then back to A in the next bin.
      {conn(0, 1, at(0, 8, 0) + 10, 60), conn(0, 2, at(0, 8, 1) + 30, 60),
       conn(0, 1, at(0, 8, 3), 60), conn(0, 1, at(0, 8, 14), 120)},
      // A long record containing a shorter one on the same cell, then one
      // that starts inside it and runs past its end.
      {conn(1, 3, at(2, 9), 7200), conn(1, 3, at(2, 9, 40), 300),
       conn(1, 4, at(2, 9, 50), 60), conn(1, 3, at(2, 10, 50), 1800)},
      // Bins clamped at the study start and end: a record from before the
      // start, a zero-length one at the start, a negative-duration one, and
      // two past the end that clamp onto the same last bin.
      {conn(2, 5, -2000, 3000), conn(2, 5, 0, 0), conn(2, 6, 400, -30),
       conn(2, 5, end - 600, 5000), conn(2, 5, end + 100, 60)},
      // The same cell-bins as car 0 from another car count again.
      {conn(3, 1, at(0, 8, 2), 30), conn(3, 2, at(0, 8, 5), 30)},
  };
  const auto expected = naive_week_counts(cars, kDays);
  for (std::size_t split = 0; split <= cars.size(); ++split) {
    EXPECT_EQ(accumulated_week_counts(cars, kDays, split), expected)
        << "split " << split;
  }
  // Spot-check the reference itself: cell 1's Monday 08:00 bin holds cars
  // 0 and 3 once each, despite car 0's A-B-A switches.
  const std::uint64_t monday_8 =
      (std::uint64_t{1} << kWeekBinBits) |
      static_cast<std::uint64_t>(time::bin15_of_week(at(0, 8)));
  EXPECT_EQ(expected.at(monday_8), 2u);
}

TEST(ConcurrencyTest, CountsKernelMatchesReferenceOnRandomCars) {
  // Random cars with overlapping records on a handful of cells, durations
  // down to negative, starts from before the study to past its end.
  constexpr int kDays = 9;
  const time::Seconds horizon = time::Seconds{kDays} * kSecondsPerDay;
  std::mt19937_64 rng(20170901);
  std::vector<std::vector<cdr::Connection>> cars;
  for (std::uint32_t car = 0; car < 60; ++car) {
    std::vector<cdr::Connection> records;
    const std::size_t n = 1 + rng() % 40;
    for (std::size_t i = 0; i < n; ++i) {
      const time::Seconds start =
          static_cast<time::Seconds>(rng() % (horizon + 4000)) - 2000;
      const auto duration = static_cast<std::int32_t>(rng() % 4000) - 200;
      records.push_back(conn(car, static_cast<std::uint32_t>(rng() % 6),
                             start, duration));
    }
    std::sort(records.begin(), records.end(),
              [](const cdr::Connection& a, const cdr::Connection& b) {
                return a.start < b.start;
              });
    cars.push_back(std::move(records));
  }
  const auto expected = naive_week_counts(cars, kDays);
  for (const std::size_t split : {std::size_t{0}, std::size_t{31}}) {
    EXPECT_EQ(accumulated_week_counts(cars, kDays, split), expected)
        << "split " << split;
  }
}

TEST(ConcurrencyTest, StudyDaysRecorded) {
  const auto d = make_dataset({conn(0, 3, at(0, 8), 60)}, 1, 21);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  EXPECT_EQ(grid.study_days(), 21);
}

}  // namespace
}  // namespace ccms::core
