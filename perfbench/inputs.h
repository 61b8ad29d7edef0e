// The paper_default trace shared by three workloads and the layer profile,
// the in-memory front end that turns it into a Dataset, the batch reference
// outputs are checked against, and the two halves of the layer profile.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench.h"
#include "cdr/dataset.h"
#include "core/study.h"
#include "core/usage_matrix.h"
#include "exec/thread_pool.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace ccms;

/// Executor width for every batch call, and shards + producer for the
/// streaming workloads: the 4 cores of the reference machine.
inline constexpr int kWidth = 4;

/// The paper_default trace shared by batch-inmem, stream-live and
/// dist-failover: 4000 cars x 28 days.
struct PaperTrace {
  sim::Study world;                       ///< topology + load; raw emptied
  std::vector<cdr::Connection> arrivals;  ///< start-time (arrival) order
};

/// Simulates the trace for `seed` and hands its records over in arrival
/// order: (start, car, cell, duration).
[[nodiscard]] PaperTrace make_paper_trace(std::uint64_t seed);

/// The program's in-memory front end: Dataset add + finalize on `pool`.
/// Each call is one Span ("cdr.dataset_add", "cdr.finalize").
[[nodiscard]] cdr::Dataset build_dataset(Run& run,
                                         std::span<const cdr::Connection> in,
                                         const sim::SimConfig& config,
                                         exec::ThreadPool& pool);

/// The batch-inmem reference: a 1-thread run_study (the sequential
/// executor path) plus the whole-fleet usage matrix of the cleaned data,
/// which stream parity also needs.
struct BatchReference {
  core::StudyReport report;
  core::Matrix24x7 fleet_usage;
};
[[nodiscard]] BatchReference batch_reference(Run& run,
                                             const cdr::Dataset& raw,
                                             const net::CellTable& cells,
                                             const core::CellLoad& load);

/// The batch half of the layer profile on `trace`: times cdr (finalize,
/// clean, CCDR2 open and decode), core (load grid, concurrency grid,
/// clustering, run_study at 1 and 4 threads, run_study_columnar at 1 and 4
/// threads) and exec (the pool's CPU share), checking every report. Returns
/// the batch reference, which the stream half checks against.
BatchReference profile_batch_layers(Run& run, const PaperTrace& trace);

/// The stream and dist half of the layer profile on `trace`: ShardedEngine
/// catch-ups and open-loop live replays, then DistEngine catch-ups with
/// worker 1 crashed, checking every final report.
void profile_stream_layers(Run& run, const PaperTrace& trace,
                           const BatchReference& ref);

}  // namespace perfbench
