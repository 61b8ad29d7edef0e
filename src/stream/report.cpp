#include "stream/report.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/time.h"

namespace ccms::stream {

DurationTally::DurationTally(std::int32_t cap) : cap_(cap) {}

void DurationTally::add(std::int32_t duration_s) {
  if (duration_s < 0) return;
  const auto d = static_cast<std::size_t>(duration_s);
  if (d >= hist_.size()) hist_.resize(d + 1, 0);
  ++hist_[d];
  ++count_;
  sum_full_ += duration_s;
  sum_trunc_ += cdr::truncated_duration(duration_s, cap_);
  p2_.add(static_cast<double>(duration_s));
}

double DurationTally::quantile(double q) const {
  if (count_ == 0) return 0;
  // Reconstruct the two order statistics type-7 interpolates between from
  // cumulative multiplicities — exactly what EmpiricalDistribution computes
  // over the sorted sample, without materialising it.
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(h);
  const double frac = h - static_cast<double>(lo);
  const std::uint64_t hi = std::min<std::uint64_t>(count_ - 1, lo + 1);

  double v_lo = 0;
  double v_hi = 0;
  std::uint64_t cum = 0;
  bool have_lo = false;
  for (std::size_t d = 0; d < hist_.size(); ++d) {
    cum += hist_[d];
    if (!have_lo && cum > lo) {
      v_lo = static_cast<double>(d);
      have_lo = true;
    }
    if (cum > hi) {
      v_hi = static_cast<double>(d);
      break;
    }
  }
  return v_lo + frac * (v_hi - v_lo);
}

double DurationTally::cdf(std::int32_t x) const {
  if (count_ == 0) return 0;
  if (x < 0) return 0;
  std::uint64_t cum = 0;
  const std::size_t last =
      std::min(hist_.size(), static_cast<std::size_t>(x) + 1);
  for (std::size_t d = 0; d < last; ++d) cum += hist_[d];
  return static_cast<double>(cum) / static_cast<double>(count_);
}

core::CellSessionStats DurationTally::to_cell_stats() const {
  core::CellSessionStats stats;
  stats.cap = cap_;
  if (count_ == 0) return stats;
  stats.median = quantile(0.5);
  stats.mean_full =
      static_cast<double>(sum_full_) / static_cast<double>(count_);
  stats.mean_truncated =
      static_cast<double>(sum_trunc_) / static_cast<double>(count_);
  stats.cdf_at_cap = cdf(cap_);
  return stats;
}

StreamReport merge_snapshots(const StreamConfig& config,
                             const std::vector<ShardSnapshot>& shards,
                             const cdr::IngestReport& ingest,
                             const cdr::CleanReport& clean,
                             const DurationTally& durations,
                             const EngineStats& engine,
                             std::vector<DegradedShard> degraded) {
  StreamReport report;
  report.ingest = ingest;
  report.clean = clean;
  report.engine = engine;
  report.degraded_shards = std::move(degraded);
  std::uint64_t lost = 0;
  for (const DegradedShard& d : report.degraded_shards) {
    lost += d.records_lost;
  }
  report.coverage_fraction =
      engine.records_routed > 0
          ? 1.0 - static_cast<double>(lost) /
                      static_cast<double>(engine.records_routed)
          : 1.0;
  report.cell_sessions = durations.to_cell_stats();
  report.duration_p2_median = durations.p2_median();

  // Study horizon: configured, or grown to the latest day any shard saw.
  std::size_t observed_days = 0;
  for (const ShardSnapshot& shard : shards) {
    observed_days = std::max(observed_days, shard.cars_per_day.size());
  }
  const int study_days =
      config.study_days > 0 ? config.study_days
                            : static_cast<int>(observed_days);
  const auto n_days = static_cast<std::size_t>(std::max(1, study_days));

  // --- Presence (cars are partitioned: per-day counts add; cells span
  // shards: per-cell day sets OR together).
  std::vector<std::uint64_t> cars_per_day(n_days, 0);
  std::unordered_map<std::uint32_t, DayBits> cell_days;
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t d = 0; d < shard.cars_per_day.size() && d < n_days; ++d) {
      cars_per_day[d] += shard.cars_per_day[d];
    }
    for (const auto& [cell, bits] : shard.cell_days) {
      cell_days[cell].merge(bits);
    }
  }
  std::vector<std::uint64_t> cells_per_day(n_days, 0);
  for (const auto& [cell, bits] : cell_days) {
    for (std::size_t d = 0; d < n_days; ++d) {
      if (bits.test(static_cast<std::int64_t>(d))) ++cells_per_day[d];
    }
  }
  report.presence.fleet_size = config.fleet_size;
  report.presence.ever_touched_cells = cell_days.size();
  report.presence.cars_fraction.resize(n_days, 0.0);
  report.presence.cells_fraction.resize(n_days, 0.0);
  for (std::size_t d = 0; d < n_days; ++d) {
    report.presence.cars_fraction[d] =
        report.presence.fleet_size > 0
            ? static_cast<double>(cars_per_day[d]) / report.presence.fleet_size
            : 0.0;
    report.presence.cells_fraction[d] =
        report.presence.ever_touched_cells > 0
            ? static_cast<double>(cells_per_day[d]) /
                  static_cast<double>(report.presence.ever_touched_cells)
            : 0.0;
  }
  core::summarize_presence(report.presence);

  // --- Per-car totals, merged in ascending car order so the derived
  // vectors line up with the batch for_each_car traversal.
  std::vector<ShardSnapshot::CarTotals> all_cars;
  for (const ShardSnapshot& shard : shards) {
    all_cars.insert(all_cars.end(), shard.cars.begin(), shard.cars.end());
  }
  std::sort(all_cars.begin(), all_cars.end(),
            [](const auto& a, const auto& b) { return a.car < b.car; });

  const double study_seconds =
      static_cast<double>(study_days) * time::kSecondsPerDay;
  if (study_seconds > 0) {
    std::vector<double> full;
    std::vector<double> truncated;
    full.reserve(all_cars.size());
    truncated.reserve(all_cars.size());
    for (const auto& car : all_cars) {
      full.push_back(static_cast<double>(car.full_s) / study_seconds);
      truncated.push_back(static_cast<double>(car.trunc_s) / study_seconds);
    }
    report.connected_time = core::connected_time_from_fractions(
        std::move(full), std::move(truncated), study_days);
  } else {
    report.connected_time.study_days = study_days;
  }

  std::vector<CarId> day_cars;
  std::vector<int> days_per_car;
  day_cars.reserve(all_cars.size());
  days_per_car.reserve(all_cars.size());
  for (const auto& car : all_cars) {
    day_cars.push_back(CarId{car.car});
    days_per_car.push_back(car.days);
  }
  report.days = core::days_on_network_from_counts(
      std::move(day_cars), std::move(days_per_car), study_days);

  // --- Usage matrix and sessions.
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t i = 0; i < report.usage.values.size(); ++i) {
      report.usage.values[i] += shard.usage.values[i];
    }
    report.sessions_closed += shard.sessions_closed;
    report.sessions_open += shard.sessions_open;
    report.session_span.merge(shard.session_span);
    report.engine.records_integrated += shard.records;
    report.engine.reorder_peak =
        std::max(report.engine.reorder_peak, shard.reorder_peak);
    report.engine.reorder_pending += shard.reorder_pending;
  }

  // --- Busiest cells: connection counts add; the P2 medians of one cell's
  // shard-local substreams combine as a count-weighted average.
  struct CellAgg {
    std::uint64_t connections = 0;
    double weighted_median = 0;
  };
  std::unordered_map<std::uint32_t, CellAgg> cells;
  for (const ShardSnapshot& shard : shards) {
    for (const auto& stat : shard.cell_stats) {
      CellAgg& agg = cells[stat.cell];
      agg.connections += stat.connections;
      agg.weighted_median +=
          static_cast<double>(stat.connections) * stat.median_s;
    }
  }
  report.top_cells.reserve(cells.size());
  for (const auto& [cell, agg] : cells) {
    CellActivity activity;
    activity.cell = cell;
    activity.connections = agg.connections;
    activity.median_s = agg.connections > 0
                            ? agg.weighted_median /
                                  static_cast<double>(agg.connections)
                            : 0.0;
    const auto it = cell_days.find(cell);
    activity.days_active = it != cell_days.end() ? it->second.count() : 0;
    report.top_cells.push_back(activity);
  }
  std::sort(report.top_cells.begin(), report.top_cells.end(),
            [](const CellActivity& a, const CellActivity& b) {
              if (a.connections != b.connections) {
                return a.connections > b.connections;
              }
              return a.cell < b.cell;
            });
  if (report.top_cells.size() > config.top_cells) {
    report.top_cells.resize(config.top_cells);
  }

  // --- Recent concurrency bins: same bin across shards merges additively
  // (disjoint car sets), provisional if any shard still holds it open.
  std::map<std::int64_t, BinCounts> bins;
  for (const ShardSnapshot& shard : shards) {
    for (const BinCounts& b : shard.bins) {
      BinCounts& merged = bins[b.bin];
      merged.bin = b.bin;
      merged.cars += b.cars;
      merged.provisional = merged.provisional || b.provisional;
      for (const auto& [cell, count] : b.cells) {
        auto it = std::lower_bound(
            merged.cells.begin(), merged.cells.end(), cell,
            [](const auto& entry, std::uint32_t c) { return entry.first < c; });
        if (it != merged.cells.end() && it->first == cell) {
          it->second += count;
        } else {
          merged.cells.insert(it, {cell, count});
        }
      }
    }
  }
  report.recent_bins.reserve(bins.size());
  for (auto& [bin, counts] : bins) report.recent_bins.push_back(std::move(counts));
  if (config.recent_bins > 0 &&
      report.recent_bins.size() > static_cast<std::size_t>(config.recent_bins)) {
    report.recent_bins.erase(
        report.recent_bins.begin(),
        report.recent_bins.end() - config.recent_bins);
  }
  return report;
}

namespace {

double max_abs_delta(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

ParityReport parity_against(const StreamReport& stream,
                            const core::StudyReport& batch,
                            const core::Matrix24x7* fleet_usage) {
  ParityReport parity;

  parity.presence_cars_max_delta = max_abs_delta(
      stream.presence.cars_fraction, batch.presence.cars_fraction);
  parity.presence_cells_max_delta = max_abs_delta(
      stream.presence.cells_fraction, batch.presence.cells_fraction);
  parity.presence_denominators_equal =
      stream.presence.fleet_size == batch.presence.fleet_size &&
      stream.presence.ever_touched_cells == batch.presence.ever_touched_cells;

  parity.connected_mean_full_delta = std::abs(
      stream.connected_time.mean_full - batch.connected_time.mean_full);
  parity.connected_mean_truncated_delta =
      std::abs(stream.connected_time.mean_truncated -
               batch.connected_time.mean_truncated);
  parity.connected_p995_full_delta = std::abs(
      stream.connected_time.p995_full - batch.connected_time.p995_full);
  parity.connected_p995_truncated_delta =
      std::abs(stream.connected_time.p995_truncated -
               batch.connected_time.p995_truncated);
  parity.connected_cars_delta =
      static_cast<std::int64_t>(stream.connected_time.full.size()) -
      static_cast<std::int64_t>(batch.connected_time.full.size());

  parity.days_per_car_equal =
      stream.days.cars == batch.days.cars &&
      stream.days.days_per_car == batch.days.days_per_car;

  parity.duration_median_delta =
      std::abs(stream.cell_sessions.median - batch.cell_sessions.median);
  parity.duration_mean_full_delta =
      std::abs(stream.cell_sessions.mean_full - batch.cell_sessions.mean_full);
  parity.duration_mean_truncated_delta =
      std::abs(stream.cell_sessions.mean_truncated -
               batch.cell_sessions.mean_truncated);
  parity.duration_cdf_at_cap_delta = std::abs(
      stream.cell_sessions.cdf_at_cap - batch.cell_sessions.cdf_at_cap);

  if (fleet_usage != nullptr) {
    for (std::size_t i = 0; i < stream.usage.values.size(); ++i) {
      parity.usage_max_delta =
          std::max(parity.usage_max_delta,
                   std::abs(stream.usage.values[i] - fleet_usage->values[i]));
    }
  }

  const double exact_median = batch.cell_sessions.median;
  if (exact_median != 0) {
    parity.p2_median_rel_error =
        std::abs(stream.duration_p2_median - exact_median) /
        std::abs(exact_median);
  } else {
    parity.p2_median_rel_error = std::abs(stream.duration_p2_median);
  }
  return parity;
}

namespace {

// reports_identical helpers: every comparison funnels through check() so the
// first differing field's name lands in `why`.
struct IdentityCheck {
  std::string* why = nullptr;
  bool ok = true;

  bool check(bool equal, const char* field) {
    if (!equal && ok) {
      ok = false;
      if (why != nullptr) *why = field;
    }
    return equal;
  }
};

bool spans_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool bins_equal(const std::vector<BinCounts>& a,
                const std::vector<BinCounts>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bin != b[i].bin || a[i].cars != b[i].cars ||
        a[i].provisional != b[i].provisional || a[i].cells != b[i].cells) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool reports_identical(const StreamReport& a, const StreamReport& b,
                       std::string* why) {
  IdentityCheck id{why};

  // Ingest accounting. records_offered / replay counts are delivery
  // telemetry (an at-least-once feed legitimately re-delivers), but what the
  // engine *accounted* must match exactly — including the quarantine.
  id.check(a.ingest.records_accepted == b.ingest.records_accepted,
           "ingest.records_accepted");
  id.check(a.ingest.records_dropped == b.ingest.records_dropped,
           "ingest.records_dropped");
  id.check(a.ingest.records_repaired == b.ingest.records_repaired,
           "ingest.records_repaired");
  id.check(a.ingest.counters == b.ingest.counters, "ingest.counters");
  id.check(a.ingest.quarantine_overflow == b.ingest.quarantine_overflow,
           "ingest.quarantine_overflow");
  id.check(a.ingest.quarantine == b.ingest.quarantine, "ingest.quarantine");

  // §3 cleaning screen.
  id.check(a.clean == b.clean, "clean");

  // Presence (Fig 2): the primitive series + denominators determine every
  // derived stat (trends, weekday table), so comparing them is exhaustive.
  id.check(a.presence.cars_fraction == b.presence.cars_fraction,
           "presence.cars_fraction");
  id.check(a.presence.cells_fraction == b.presence.cells_fraction,
           "presence.cells_fraction");
  id.check(a.presence.fleet_size == b.presence.fleet_size,
           "presence.fleet_size");
  id.check(a.presence.ever_touched_cells == b.presence.ever_touched_cells,
           "presence.ever_touched_cells");

  // Connected time (Fig 3): full per-car samples, not just the summaries.
  id.check(spans_equal(a.connected_time.full.sorted(),
                       b.connected_time.full.sorted()),
           "connected_time.full");
  id.check(spans_equal(a.connected_time.truncated.sorted(),
                       b.connected_time.truncated.sorted()),
           "connected_time.truncated");
  id.check(a.connected_time.mean_full == b.connected_time.mean_full,
           "connected_time.mean_full");
  id.check(a.connected_time.mean_truncated == b.connected_time.mean_truncated,
           "connected_time.mean_truncated");
  id.check(a.connected_time.p995_full == b.connected_time.p995_full,
           "connected_time.p995_full");
  id.check(
      a.connected_time.p995_truncated == b.connected_time.p995_truncated,
      "connected_time.p995_truncated");
  id.check(a.connected_time.study_days == b.connected_time.study_days,
           "connected_time.study_days");

  // Days on network (Fig 4).
  id.check(a.days.cars == b.days.cars, "days.cars");
  id.check(a.days.days_per_car == b.days.days_per_car, "days.days_per_car");
  id.check(a.days.knee_days == b.days.knee_days, "days.knee_days");

  // Durations (Fig 9): exact scalars and the P2 estimate (restored P2
  // markers must continue bit-exactly, so the estimate must agree too).
  id.check(a.cell_sessions.median == b.cell_sessions.median,
           "cell_sessions.median");
  id.check(a.cell_sessions.mean_full == b.cell_sessions.mean_full,
           "cell_sessions.mean_full");
  id.check(a.cell_sessions.mean_truncated == b.cell_sessions.mean_truncated,
           "cell_sessions.mean_truncated");
  id.check(a.cell_sessions.cdf_at_cap == b.cell_sessions.cdf_at_cap,
           "cell_sessions.cdf_at_cap");
  id.check(a.cell_sessions.cap == b.cell_sessions.cap, "cell_sessions.cap");
  id.check(a.duration_p2_median == b.duration_p2_median,
           "duration_p2_median");

  // Usage matrix (Fig 5) and sessions.
  id.check(a.usage.values == b.usage.values, "usage.values");
  id.check(a.sessions_closed == b.sessions_closed, "sessions_closed");
  id.check(a.sessions_open == b.sessions_open, "sessions_open");
  id.check(a.session_span.count() == b.session_span.count(),
           "session_span.count");
  id.check(a.session_span.sum() == b.session_span.sum(), "session_span.sum");
  id.check(a.session_span.mean() == b.session_span.mean(),
           "session_span.mean");
  id.check(a.session_span.variance_population() ==
               b.session_span.variance_population(),
           "session_span.variance");
  id.check(a.session_span.min() == b.session_span.min(), "session_span.min");
  id.check(a.session_span.max() == b.session_span.max(), "session_span.max");

  // Live views.
  {
    bool equal = a.top_cells.size() == b.top_cells.size();
    for (std::size_t i = 0; equal && i < a.top_cells.size(); ++i) {
      equal = a.top_cells[i].cell == b.top_cells[i].cell &&
              a.top_cells[i].connections == b.top_cells[i].connections &&
              a.top_cells[i].median_s == b.top_cells[i].median_s &&
              a.top_cells[i].days_active == b.top_cells[i].days_active;
    }
    id.check(equal, "top_cells");
  }
  id.check(bins_equal(a.recent_bins, b.recent_bins), "recent_bins");

  // Degraded-shard accounting and the engine counters that describe
  // *accounted* records. records_offered / records_replayed and the reorder
  // peaks are excluded: a replayed run legitimately offers more records and
  // drains its heaps at different instants, with identical analytic state.
  {
    bool equal = a.degraded_shards.size() == b.degraded_shards.size();
    for (std::size_t i = 0; equal && i < a.degraded_shards.size(); ++i) {
      equal = a.degraded_shards[i].shard == b.degraded_shards[i].shard &&
              a.degraded_shards[i].records_lost ==
                  b.degraded_shards[i].records_lost;
    }
    id.check(equal, "degraded_shards");
  }
  id.check(a.coverage_fraction == b.coverage_fraction, "coverage_fraction");
  id.check(a.engine.shards == b.engine.shards, "engine.shards");
  id.check(a.engine.watermark == b.engine.watermark, "engine.watermark");
  id.check(a.engine.records_routed == b.engine.records_routed,
           "engine.records_routed");
  id.check(a.engine.records_integrated == b.engine.records_integrated,
           "engine.records_integrated");
  id.check(a.engine.reorder_pending == b.engine.reorder_pending,
           "engine.reorder_pending");

  return id.ok;
}

bool ParityReport::pass(double p2_rel_tolerance) const {
  return presence_cars_max_delta == 0 && presence_cells_max_delta == 0 &&
         presence_denominators_equal && connected_mean_full_delta == 0 &&
         connected_mean_truncated_delta == 0 &&
         connected_p995_full_delta == 0 &&
         connected_p995_truncated_delta == 0 && connected_cars_delta == 0 &&
         days_per_car_equal && duration_median_delta == 0 &&
         duration_mean_full_delta == 0 && duration_mean_truncated_delta == 0 &&
         duration_cdf_at_cap_delta == 0 && usage_max_delta == 0 &&
         p2_median_rel_error <= p2_rel_tolerance;
}

}  // namespace ccms::stream
