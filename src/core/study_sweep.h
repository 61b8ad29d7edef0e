// The batch study's one sweep state, shared by run_study and
// run_study_columnar.
//
// Both drivers screen every record through cdr::screen_clean into `clean`,
// stage each car's surviving records in start order and hand them to
// add_car, which feeds all eight §4 passes. Chunk sweeps merge in ascending
// car order (`other`'s cars strictly after ours) and finish() derives the
// whole StudyReport, so the two drivers differ only in where records come
// from: a Dataset's car spans or decoded CCDR2 blocks.
#pragma once

#include <cstdint>
#include <span>

#include "core/passes.h"
#include "core/study.h"

namespace ccms::core {

class StudySweep {
 public:
  StudySweep(int study_days, const net::CellTable& cells, const CellLoad& load,
             const StudyOptions& options);

  /// Folds one car's cleaned records, start order, into every pass.
  void add_car(CarId car, std::span<const cdr::Connection> records);

  /// Merges a sweep whose cars are strictly after this one's.
  void merge(StudySweep&& other);

  /// Derives every figure. `fleet_size` is the Fig 2 denominator and
  /// `study_days` the Fig 10/11 grid geometry; `clean` becomes the report's
  /// clean accounting and `ingest` is left to the caller.
  [[nodiscard]] StudyReport finish(std::uint32_t fleet_size, int study_days,
                                   const CellLoad& load,
                                   const StudyOptions& options) &&;

  /// §3 accounting of every record screened into this sweep.
  cdr::CleanReport clean;

 private:
  PresenceAccumulator presence_;
  ConnectedTimeAccumulator connected_;
  DaysAccumulator days_;
  BusyTimeAccumulator busy_;
  HandoverAccumulator handovers_;
  CarrierUsageAccumulator carriers_;
  ConcurrencyCountsAccumulator concurrency_;
  CellSessionsAccumulator cell_sessions_;
};

}  // namespace ccms::core
