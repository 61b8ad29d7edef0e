#include "core/study.h"

#include <utility>
#include <vector>

#include "cdr/io.h"
#include "core/study_sweep.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace ccms::core {

StudySweep::StudySweep(int study_days, const net::CellTable& cells,
                       const CellLoad& load, const StudyOptions& options)
    : presence_(study_days, cells.size()),
      connected_(study_days, options.truncation_cap),
      days_(study_days),
      busy_(&load, options.busy_prb_threshold),
      handovers_(&cells, cdr::kJourneyGap),
      carriers_(&cells),
      concurrency_(study_days),
      cell_sessions_(options.truncation_cap) {}

void StudySweep::add_car(CarId car, std::span<const cdr::Connection> records) {
  presence_.add_car(car, records);
  connected_.add_car(car, records);
  days_.add_car(car, records);
  busy_.add_car(car, records);
  handovers_.add_car(car, records);
  carriers_.add_car(car, records);
  concurrency_.add_car(car, records);
  cell_sessions_.add_car(car, records);
}

void StudySweep::merge(StudySweep&& other) {
  cdr::merge_clean(clean, other.clean);
  presence_.merge(std::move(other.presence_));
  connected_.merge(std::move(other.connected_));
  days_.merge(std::move(other.days_));
  busy_.merge(std::move(other.busy_));
  handovers_.merge(std::move(other.handovers_));
  carriers_.merge(other.carriers_);
  concurrency_.merge(std::move(other.concurrency_));
  cell_sessions_.merge(std::move(other.cell_sessions_));
}

StudyReport StudySweep::finish(std::uint32_t fleet_size, int study_days,
                               const CellLoad& load,
                               const StudyOptions& options) && {
  StudyReport report;
  report.clean = clean;
  report.presence = presence_.finalize(fleet_size);
  report.connected_time = std::move(connected_).finalize();
  report.days = std::move(days_).finalize();
  report.busy_time = std::move(busy_).finalize();
  report.segmentation =
      segment_cars(report.days, report.busy_time, options.segmentation);
  report.cell_sessions = std::move(cell_sessions_).finalize();
  report.handovers = std::move(handovers_).finalize();
  report.carriers = carriers_.finalize();

  const auto [keys, counts] = std::move(concurrency_).take_counts();
  const ConcurrencyGrid grid =
      ConcurrencyGrid::from_bin_counts(keys, counts, study_days);
  report.clusters =
      cluster_busy_cells(grid, load, options.cluster_load_threshold,
                         options.cluster_k, options.cluster_seed);
  return report;
}

StudyReport run_study(const cdr::Dataset& raw, const net::CellTable& cells,
                      const CellLoad& load, const StudyOptions& options) {
  if (!raw.finalized()) {
    // The sweep needs start-ordered car spans. cdr::clean finalizes its copy
    // and derives any geometry the caller left unset from the surviving
    // records; sweeping that copy screens nothing further, so only its
    // clean accounting is taken from the copy step.
    cdr::CleanReport clean;
    const cdr::Dataset cleaned = cdr::clean(raw, options.clean, clean);
    StudyReport report = run_study(cleaned, cells, load, options);
    report.clean = clean;
    return report;
  }

  // One pass over the car spans: each car is screened through §3 into a
  // per-thread buffer and its survivors folded into every pass. Fixed-size
  // chunks folded sequentially and merged in ascending car order make the
  // result bitwise identical for any pool size.
  exec::ThreadPool pool(options.threads);
  const int study_days = raw.study_days();
  StudySweep sweep = exec::parallel_over_spans(
      pool, raw.car_spans(),
      [&] { return StudySweep(study_days, cells, load, options); },
      [&](StudySweep& acc, const cdr::Dataset::CarSpan& span) {
        thread_local std::vector<cdr::Connection> kept;
        kept.clear();
        for (const cdr::Connection& c : span.records) {
          if (cdr::screen_clean(c, options.clean, acc.clean)) kept.push_back(c);
        }
        if (!kept.empty()) acc.add_car(span.car, kept);
      },
      [](StudySweep& into, StudySweep&& from) { into.merge(std::move(from)); });
  return std::move(sweep).finish(raw.fleet_size(), study_days, load, options);
}

StudyReport run_study_csv(const std::string& path, const net::CellTable& cells,
                          const CellLoad& load, const StudyOptions& options) {
  cdr::IngestReport ingest;
  const cdr::Dataset raw = cdr::read_csv(path, options.ingest, ingest);
  StudyReport report = run_study(raw, cells, load, options);
  report.ingest = std::move(ingest);
  return report;
}

}  // namespace ccms::core
