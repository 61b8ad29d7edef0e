// Out-of-core batch driver: run_study over a CCDR2 file without ever
// holding the records in memory.
//
// The sweep folds car-aligned column blocks through the same StudySweep
// run_study uses, one block per exec::parallel_reduce item, in fixed
// windows of kWindowBlocks blocks. Determinism and exactness rest on three
// properties, argued in DESIGN.md §13:
//
//   1. Blocks are car-aligned, so every block boundary is a car boundary
//      and the accumulators' "other's ids strictly after ours" merge
//      contract holds for any partition into block ranges.
//   2. The window partition and each window's merge tree are functions of
//      the file alone (never of the thread count), and window results
//      merge into the running total in ascending order — so every pool
//      width folds and merges the identical operation sequence.
//   3. Record screening resets its previous-record state at every block
//      boundary on the sequential path too (see cdr::RecordScreen), so the
//      per-block ingest accounting tiles exactly.
//
// Memory: at most kWindowBlocks single-block partials plus the running
// total are alive at once, each holding state sized by the cell table and
// by distinct values, not by records. Consumed blocks are dropped from the page cache as each
// window completes.

#include "core/study.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdr/columnar.h"
#include "core/study_sweep.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace ccms::core {

namespace {

/// Blocks folded per window, one block per parallel_reduce item. Fixed —
/// never derived from the thread count — so the merge sequence (and with it
/// every figure) is identical for every pool width.
constexpr std::size_t kWindowBlocks = 32;

/// All per-block sweep state: ingest accounting, the fleet-size witness and
/// the study sweep proper (clean accounting and every pass).
struct ColumnarSweep {
  cdr::IngestReport ingest;
  std::uint32_t max_car = 0;
  bool any_accepted = false;
  StudySweep sweep;

  ColumnarSweep(int study_days, const net::CellTable& cells,
                const CellLoad& load, const StudyOptions& options)
      : sweep(study_days, cells, load, options) {}

  /// Merges a sweep whose blocks (hence cars) are strictly after this
  /// one's.
  void merge(ColumnarSweep&& other, std::size_t quarantine_cap) {
    cdr::merge_ingest(ingest, std::move(other.ingest), quarantine_cap);
    max_car = std::max(max_car, other.max_car);
    any_accepted = any_accepted || other.any_accepted;
    sweep.merge(std::move(other.sweep));
  }
};

/// Per-thread decode and per-car staging buffers. Kept thread_local rather
/// than inside the block partials so scratch capacity scales with the
/// thread count, not the window width.
struct DecodeScratch {
  cdr::ColumnBlock block;
  std::vector<cdr::Connection> car;  ///< one car's cleaned records
};

DecodeScratch& scratch_for_thread() {
  thread_local DecodeScratch scratch;
  return scratch;
}

/// Folds one block: decode, screen (§7), clean (§3), stage per car. The
/// screen/clean order and accounting match read_columnar + cdr::clean
/// record for record.
void fold_block(ColumnarSweep& acc, const cdr::ColumnarFile& file,
                std::size_t b, const StudyOptions& options,
                const std::string& label) {
  DecodeScratch& s = scratch_for_thread();
  cdr::RecordScreen screen(options.ingest, acc.ingest, label);
  const cdr::ColumnarBlockDesc& desc = file.blocks()[b];
  const cdr::ColumnarFile::DecodeStatus status = file.decode_block(b, s.block);
  if (status != cdr::ColumnarFile::DecodeStatus::kOk) {
    screen.fault(
        status == cdr::ColumnarFile::DecodeStatus::kChecksumMismatch
            ? cdr::FaultClass::kChecksumMismatch
            : cdr::FaultClass::kTruncatedPayload,
        desc.offset,
        "block " + std::to_string(b) +
            (status == cdr::ColumnarFile::DecodeStatus::kChecksumMismatch
                 ? " payload CRC32 does not match"
                 : " column stream is malformed"));
    acc.ingest.rows_read += desc.records;
    acc.ingest.records_dropped += desc.records;
    return;
  }
  s.car.clear();
  for (std::size_t i = 0; i < s.block.size(); ++i) {
    const cdr::Connection c{CarId{s.block.car[i]}, CellId{s.block.cell[i]},
                            s.block.start[i], s.block.duration[i]};
    if (!screen.screen(c, desc.offset)) continue;
    acc.any_accepted = true;
    acc.max_car = std::max(acc.max_car, c.car.value);
    if (!cdr::screen_clean(c, options.clean, acc.sweep.clean)) continue;
    if (!s.car.empty() && c.car != s.car.back().car) {
      acc.sweep.add_car(s.car.back().car, s.car);
      s.car.clear();
    }
    s.car.push_back(c);
  }
  if (!s.car.empty()) acc.sweep.add_car(s.car.back().car, s.car);
}

StudyReport run_columnar_impl(const cdr::ColumnarFile& file,
                              const net::CellTable& cells, const CellLoad& load,
                              const StudyOptions& options,
                              cdr::IngestReport base,
                              const std::string& label) {
  base.mode = options.ingest.mode;
  if (file.study_days() <= 0) {
    // A header without a day count (hand-built or zeroed) leaves the study
    // geometry unknown until every record is seen, which is exactly what
    // streaming cannot do. Such a file is degenerate — materialize it and
    // take the in-memory path, which derives study_days in finalize().
    cdr::Dataset raw =
        cdr::materialize_columnar(file, options.ingest, base, label);
    StudyReport report = run_study(raw, cells, load, options);
    report.ingest = std::move(base);
    return report;
  }

  const int study_days = file.study_days();
  exec::ThreadPool pool(options.threads);
  file.advise_sequential();

  const std::size_t n_blocks = file.blocks().size();
  const std::size_t cap = options.ingest.quarantine_cap;

  ColumnarSweep total(study_days, cells, load, options);
  // Each window folds its blocks in parallel and merges them in
  // parallel_reduce's fixed-shape tree; the window result then merges
  // (ascending) into the running total before the next window starts.
  for (std::size_t first = 0; first < n_blocks; first += kWindowBlocks) {
    const std::size_t count = std::min(kWindowBlocks, n_blocks - first);
    total.merge(
        exec::parallel_reduce(
            pool, count, /*chunk_size=*/1,
            [&] { return ColumnarSweep(study_days, cells, load, options); },
            [&](ColumnarSweep& acc, std::size_t i) {
              fold_block(acc, file, first + i, options, label);
            },
            [&](ColumnarSweep& into, ColumnarSweep&& from) {
              into.merge(std::move(from), cap);
            }),
        cap);
    file.drop_consumed(first, first + count);
  }

  // The fleet-size bump Dataset::finalize applies: accepted records can
  // name cars beyond the header's declared fleet.
  std::uint32_t fleet_size = file.fleet_size();
  if (total.any_accepted && fleet_size < total.max_car + 1) {
    fleet_size = total.max_car + 1;
  }

  StudyReport report =
      std::move(total.sweep).finish(fleet_size, study_days, load, options);
  cdr::merge_ingest(base, std::move(total.ingest), cap);
  report.ingest = std::move(base);
  return report;
}

}  // namespace

StudyReport run_study_columnar(const cdr::ColumnarFile& file,
                               const net::CellTable& cells,
                               const CellLoad& load,
                               const StudyOptions& options,
                               cdr::IngestReport open_report) {
  return run_columnar_impl(file, cells, load, options, std::move(open_report),
                           "<columnar>");
}

StudyReport run_study_columnar(const std::string& path,
                               const net::CellTable& cells,
                               const CellLoad& load,
                               const StudyOptions& options) {
  cdr::IngestReport base;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::open(path, options.ingest, base);
  return run_columnar_impl(file, cells, load, options, std::move(base), path);
}

StudyReport run_study_columnar_buffer(std::string_view bytes,
                                      const net::CellTable& cells,
                                      const CellLoad& load,
                                      const StudyOptions& options,
                                      const std::string& label) {
  cdr::IngestReport base;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::from_buffer(bytes, options.ingest, base, label);
  return run_columnar_impl(file, cells, load, options, std::move(base), label);
}

// --- Report identity --------------------------------------------------------

namespace {

/// First-difference recorder (mirrors stream/report.cpp's comparator).
struct IdentityCheck {
  std::string* why;
  bool ok = true;
  bool check(bool equal, const char* field) {
    if (!equal && ok) {
      ok = false;
      if (why != nullptr) *why = field;
    }
    return equal;
  }
};

bool distributions_equal(const stats::EmpiricalDistribution& a,
                         const stats::EmpiricalDistribution& b) {
  return a.values() == b.values() && a.counts() == b.counts();
}

bool stats_equal(const PresenceStat& a, const PresenceStat& b) {
  return a.mean == b.mean && a.stdev == b.stdev;
}

bool fits_equal(const stats::LinearFit& a, const stats::LinearFit& b) {
  return a.slope == b.slope && a.intercept == b.intercept &&
         a.r_squared == b.r_squared && a.n == b.n;
}

bool rows_equal(const SegmentRow& a, const SegmentRow& b) {
  return a.busy == b.busy && a.non_busy == b.non_busy && a.both == b.both;
}

}  // namespace

bool study_reports_identical(const StudyReport& a, const StudyReport& b,
                             std::string* why) {
  IdentityCheck id{why};

  // Ingest + clean accounting.
  id.check(a.ingest.mode == b.ingest.mode, "ingest.mode");
  id.check(a.ingest.bytes_consumed == b.ingest.bytes_consumed,
           "ingest.bytes_consumed");
  id.check(a.ingest.rows_read == b.ingest.rows_read, "ingest.rows_read");
  id.check(a.ingest.records_accepted == b.ingest.records_accepted,
           "ingest.records_accepted");
  id.check(a.ingest.records_dropped == b.ingest.records_dropped,
           "ingest.records_dropped");
  id.check(a.ingest.records_repaired == b.ingest.records_repaired,
           "ingest.records_repaired");
  id.check(a.ingest.bom_stripped == b.ingest.bom_stripped,
           "ingest.bom_stripped");
  id.check(a.ingest.counters == b.ingest.counters, "ingest.counters");
  id.check(a.ingest.quarantine_overflow == b.ingest.quarantine_overflow,
           "ingest.quarantine_overflow");
  id.check(a.ingest.quarantine == b.ingest.quarantine, "ingest.quarantine");
  id.check(a.clean == b.clean, "clean");

  // Presence (Fig 2, Table 1).
  id.check(a.presence.cars_fraction == b.presence.cars_fraction,
           "presence.cars_fraction");
  id.check(a.presence.cells_fraction == b.presence.cells_fraction,
           "presence.cells_fraction");
  id.check(fits_equal(a.presence.cars_trend, b.presence.cars_trend),
           "presence.cars_trend");
  id.check(fits_equal(a.presence.cells_trend, b.presence.cells_trend),
           "presence.cells_trend");
  for (std::size_t d = 0; d < 7; ++d) {
    id.check(stats_equal(a.presence.cars_by_weekday[d],
                         b.presence.cars_by_weekday[d]),
             "presence.cars_by_weekday");
    id.check(stats_equal(a.presence.cells_by_weekday[d],
                         b.presence.cells_by_weekday[d]),
             "presence.cells_by_weekday");
  }
  id.check(stats_equal(a.presence.cars_overall, b.presence.cars_overall),
           "presence.cars_overall");
  id.check(stats_equal(a.presence.cells_overall, b.presence.cells_overall),
           "presence.cells_overall");
  id.check(a.presence.fleet_size == b.presence.fleet_size,
           "presence.fleet_size");
  id.check(a.presence.ever_touched_cells == b.presence.ever_touched_cells,
           "presence.ever_touched_cells");

  // Connected time (Fig 3).
  id.check(distributions_equal(a.connected_time.full, b.connected_time.full),
           "connected_time.full");
  id.check(distributions_equal(a.connected_time.truncated,
                               b.connected_time.truncated),
           "connected_time.truncated");
  id.check(a.connected_time.mean_full == b.connected_time.mean_full,
           "connected_time.mean_full");
  id.check(a.connected_time.mean_truncated == b.connected_time.mean_truncated,
           "connected_time.mean_truncated");
  id.check(a.connected_time.p995_full == b.connected_time.p995_full,
           "connected_time.p995_full");
  id.check(a.connected_time.p995_truncated == b.connected_time.p995_truncated,
           "connected_time.p995_truncated");
  id.check(a.connected_time.study_days == b.connected_time.study_days,
           "connected_time.study_days");

  // Days on network (Fig 6).
  id.check(a.days.cars == b.days.cars, "days.cars");
  id.check(a.days.days_per_car == b.days.days_per_car, "days.days_per_car");
  id.check(a.days.histogram.counts() == b.days.histogram.counts(),
           "days.histogram");
  id.check(a.days.knee_days == b.days.knee_days, "days.knee_days");

  // Busy time (Fig 7).
  {
    bool equal = a.busy_time.per_car.size() == b.busy_time.per_car.size();
    for (std::size_t i = 0; equal && i < a.busy_time.per_car.size(); ++i) {
      const auto& ca = a.busy_time.per_car[i];
      const auto& cb = b.busy_time.per_car[i];
      equal = ca.car == cb.car && ca.share == cb.share &&
              ca.connected == cb.connected;
    }
    id.check(equal, "busy_time.per_car");
  }
  id.check(distributions_equal(a.busy_time.shares, b.busy_time.shares),
           "busy_time.shares");
  id.check(a.busy_time.fraction_over_half == b.busy_time.fraction_over_half,
           "busy_time.fraction_over_half");
  id.check(a.busy_time.fraction_all == b.busy_time.fraction_all,
           "busy_time.fraction_all");

  // Segmentation (Table 2).
  id.check(rows_equal(a.segmentation.rare_a, b.segmentation.rare_a),
           "segmentation.rare_a");
  id.check(rows_equal(a.segmentation.common_a, b.segmentation.common_a),
           "segmentation.common_a");
  id.check(rows_equal(a.segmentation.rare_b, b.segmentation.rare_b),
           "segmentation.rare_b");
  id.check(rows_equal(a.segmentation.common_b, b.segmentation.common_b),
           "segmentation.common_b");
  id.check(a.segmentation.car_count == b.segmentation.car_count,
           "segmentation.car_count");

  // Cell sessions (Fig 9).
  id.check(distributions_equal(a.cell_sessions.durations,
                               b.cell_sessions.durations),
           "cell_sessions.durations");
  id.check(a.cell_sessions.median == b.cell_sessions.median,
           "cell_sessions.median");
  id.check(a.cell_sessions.mean_full == b.cell_sessions.mean_full,
           "cell_sessions.mean_full");
  id.check(a.cell_sessions.mean_truncated == b.cell_sessions.mean_truncated,
           "cell_sessions.mean_truncated");
  id.check(a.cell_sessions.cdf_at_cap == b.cell_sessions.cdf_at_cap,
           "cell_sessions.cdf_at_cap");
  id.check(a.cell_sessions.cap == b.cell_sessions.cap, "cell_sessions.cap");

  // Handovers (§4.5).
  id.check(a.handovers.counts == b.handovers.counts, "handovers.counts");
  id.check(
      distributions_equal(a.handovers.per_session, b.handovers.per_session),
      "handovers.per_session");
  id.check(a.handovers.median == b.handovers.median, "handovers.median");
  id.check(a.handovers.p70 == b.handovers.p70, "handovers.p70");
  id.check(a.handovers.p90 == b.handovers.p90, "handovers.p90");
  id.check(distributions_equal(a.handovers.stations_per_session,
                               b.handovers.stations_per_session),
           "handovers.stations_per_session");
  id.check(a.handovers.session_count == b.handovers.session_count,
           "handovers.session_count");

  // Carriers (Table 3).
  id.check(a.carriers.cars_fraction == b.carriers.cars_fraction,
           "carriers.cars_fraction");
  id.check(a.carriers.time_fraction == b.carriers.time_fraction,
           "carriers.time_fraction");
  id.check(a.carriers.seconds == b.carriers.seconds, "carriers.seconds");
  id.check(a.carriers.car_count == b.carriers.car_count, "carriers.car_count");

  // Clusters (Fig 11).
  id.check(a.clusters.busy_cells == b.clusters.busy_cells,
           "clusters.busy_cells");
  id.check(a.clusters.assignment == b.clusters.assignment,
           "clusters.assignment");
  {
    bool equal = a.clusters.clusters.size() == b.clusters.clusters.size();
    for (std::size_t i = 0; equal && i < a.clusters.clusters.size(); ++i) {
      const auto& ka = a.clusters.clusters[i];
      const auto& kb = b.clusters.clusters[i];
      equal = ka.centroid == kb.centroid && ka.cell_count == kb.cell_count &&
              ka.mean_cars == kb.mean_cars && ka.peak_cars == kb.peak_cars;
    }
    id.check(equal, "clusters.clusters");
  }
  id.check(a.clusters.load_threshold == b.clusters.load_threshold,
           "clusters.load_threshold");

  return id.ok;
}

}  // namespace ccms::core
