// The batch workloads, batch-inmem (Dataset + core::run_study) and
// batch-columnar (CCDR2 file + core::run_study_columnar), and the batch half
// of the layer profile.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cdr/clean.h"
#include "cdr/columnar.h"
#include "core/clustering.h"
#include "core/concurrency.h"
#include "inputs.h"
#include "util/time.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kStudyDays = 28;
constexpr int kSetupRepeats = 5;
/// Calls per timed layer in the profile; each metric is their median.
constexpr int kProfileRepeats = 3;
constexpr double kMiB = 1024.0 * 1024.0;

/// The columnar fleet; its topology grid scales with the fleet as
/// perf_pipeline --out-of-core does: sqrt(10000 / 2.5) = 63 per side.
constexpr int kColumnarCars = 10000;
constexpr int kColumnarGrid = 63;

sim::SimConfig paper_config(std::uint64_t seed) {
  sim::SimConfig config = sim::SimConfig::paper_default();
  config.seed = sim_seed(seed);
  config.study_days = kStudyDays;
  config.threads = kWidth;  // generation only; the trace is width-independent
  return config;
}

core::StudyOptions study_options(int threads) {
  core::StudyOptions options;
  options.threads = threads;
  return options;
}

/// Options of both columnar paths: simulated traces can hold legitimate
/// exact duplicates, so both screen with the duplicate check off, as
/// perf_pipeline does.
core::StudyOptions columnar_options(int threads) {
  core::StudyOptions options = study_options(threads);
  options.ingest.check_duplicates = false;
  return options;
}

/// The columnar reference: run_study over read_columnar of `path`, the
/// in-memory path.
core::StudyReport columnar_reference(const std::string& path,
                                     const net::CellTable& cells,
                                     const core::CellLoad& load) {
  const core::StudyOptions options = columnar_options(kWidth);
  cdr::IngestReport ingest;
  const cdr::Dataset roundtrip =
      cdr::read_columnar(path, options.ingest, ingest);
  core::StudyReport ref = core::run_study(roundtrip, cells, load, options);
  ref.ingest = ingest;
  return ref;
}

/// Median wall time of `repeats` calls of `call`, each a span `name`.
template <typename Call>
double time_median(Run& run, std::string_view name, int repeats, Call&& call) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    Span span(run.tracer, name);
    call();
    seconds.push_back(span.stop());
  }
  return median(seconds);
}

}  // namespace

PaperTrace make_paper_trace(std::uint64_t seed) {
  PaperTrace trace{sim::simulate(paper_config(seed)), {}};
  const auto all = trace.world.raw.all();
  trace.arrivals.assign(all.begin(), all.end());
  std::sort(trace.arrivals.begin(), trace.arrivals.end(),
            [](const cdr::Connection& a, const cdr::Connection& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.car != b.car) return a.car < b.car;
              if (a.cell != b.cell) return a.cell < b.cell;
              return a.duration_s < b.duration_s;
            });
  trace.world.raw = cdr::Dataset();
  return trace;
}

cdr::Dataset build_dataset(Run& run, std::span<const cdr::Connection> in,
                           const sim::SimConfig& config,
                           exec::ThreadPool& pool) {
  cdr::Dataset dataset;
  {
    Span span(run.tracer, "cdr.dataset_add");
    dataset.add(in);
    dataset.set_fleet_size(static_cast<std::uint32_t>(config.fleet.size));
    dataset.set_study_days(config.study_days);
  }
  Span span(run.tracer, "cdr.finalize");
  dataset.finalize(pool);
  return dataset;
}

BatchReference batch_reference(Run& run, const cdr::Dataset& raw,
                               const net::CellTable& cells,
                               const core::CellLoad& load) {
  BatchReference ref;
  {
    Span span(run.tracer, "core.study_1t");
    ref.report = core::run_study(raw, cells, load, study_options(1));
  }
  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned = cdr::clean(raw, {}, clean_report);
  ref.fleet_usage = core::usage_matrix(cleaned.all());
  return ref;
}

void run_batch_inmem(Run& run) {
  Tracer& tracer = run.tracer;
  PaperTrace trace = make_paper_trace(run.seed);
  const net::CellTable& cells = trace.world.topology.cells();
  const double records = static_cast<double>(trace.arrivals.size());

  // Set-up: the records handed over become a Dataset and the load grid a
  // CellLoad, repeated so setup_s is a median.
  exec::ThreadPool pool(kWidth);
  cdr::Dataset dataset;
  core::CellLoad load;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dataset = cdr::Dataset();
    const double t0 = now_s();
    dataset = build_dataset(run, trace.arrivals, trace.world.config, pool);
    Span span(tracer, "core.load_build");
    load = core::CellLoad::from_background(trace.world.background);
    span.stop();
    setup_s.push_back(now_s() - t0);
  }
  trace.arrivals = {};
  trace.arrivals.shrink_to_fit();
  const BatchReference ref = batch_reference(run, dataset, cells, load);

  // Measured phase: run_study at width 4, each report checked against the
  // 1-thread reference outside the timed call.
  reset_peak_rss();
  const core::StudyOptions options = study_options(kWidth);
  const Timings t = repeat_for(run, [&] {
    Span span(tracer, "core.study");
    const core::StudyReport report =
        core::run_study(dataset, cells, load, options);
    const double wall = span.stop();
    std::string why;
    run.check(core::study_reports_identical(report, ref.report, &why),
              "batch-inmem run_study vs 1-thread reference", why);
    return wall;
  });
  const double peak = peak_rss_mib();
  log_timings(t);
  if (run.trace) {
    report_overhead(run, t);
    return;
  }
  run.metric("setup_s", median(setup_s), "s");
  run.metric("records_per_s", records / median(t.off), "records/s");
  run.metric("peak_rss_mib", peak, "MiB");
}

void run_batch_columnar(Run& run) {
  Tracer& tracer = run.tracer;
  const std::string dir = run.work_dir + "/data";
  fs::create_directories(dir);
  const std::string path =
      dir + "/columnar-" + std::to_string(run.seed) + ".ccdr2";

  sim::SimConfig config = paper_config(run.seed);
  config.fleet.size = kColumnarCars;
  config.topology.grid_width = kColumnarGrid;
  config.topology.grid_height = kColumnarGrid;
  const core::StudyOptions options = columnar_options(kWidth);

  // Inputs and reference, outside every timed section.
  sim::Study world = sim::simulate(config);
  cdr::write_columnar(world.raw, path);
  world.raw = cdr::Dataset();
  const net::CellTable& cells = world.topology.cells();
  const core::StudyReport ref = columnar_reference(
      path, cells, core::CellLoad::from_background(world.background));

  // Set-up: the load grid and the opened file.
  core::CellLoad load;
  cdr::IngestReport open_report;
  std::vector<double> setup_s;
  std::vector<cdr::ColumnarFile> files;
  for (int i = 0; i < kSetupRepeats; ++i) {
    load = core::CellLoad();
    files.clear();
    open_report = {};
    open_report.mode = options.ingest.mode;
    const double t0 = now_s();
    {
      Span span(tracer, "core.load_build");
      load = core::CellLoad::from_background(world.background);
    }
    Span span(tracer, "cdr.columnar_open");
    files.push_back(
        cdr::ColumnarFile::open(path, options.ingest, open_report));
    span.stop();
    setup_s.push_back(now_s() - t0);
  }
  const cdr::ColumnarFile& file = files.back();
  const auto records = static_cast<double>(file.record_count());

  reset_peak_rss();
  const Timings t = repeat_for(run, [&] {
    Span span(tracer, "core.study_columnar");
    const core::StudyReport report =
        core::run_study_columnar(file, cells, load, options, open_report);
    const double wall = span.stop();
    std::string why;
    run.check(core::study_reports_identical(report, ref, &why),
              "batch-columnar vs read_columnar + run_study", why);
    return wall;
  });
  const double peak = peak_rss_mib();
  log_timings(t);
  files.clear();
  fs::remove(path);
  if (run.trace) {
    report_overhead(run, t);
    return;
  }
  run.metric("setup_s", median(setup_s), "s");
  run.metric("records_per_s", records / median(t.off), "records/s");
  run.metric("peak_rss_mib", peak, "MiB");
}

BatchReference profile_batch_layers(Run& run, const PaperTrace& trace) {
  Tracer& tracer = run.tracer;
  const net::CellTable& cells = trace.world.topology.cells();
  const auto records = static_cast<double>(trace.arrivals.size());

  // Spans the workload recorded before the profile are not its samples.
  const std::size_t first_span = tracer.spans().size();

  // cdr: the in-memory front end.
  exec::ThreadPool pool(kWidth);
  cdr::Dataset dataset;
  for (int i = 0; i < kProfileRepeats; ++i) {
    dataset = build_dataset(run, trace.arrivals, trace.world.config, pool);
  }
  run.metric("cdr.finalize_s",
             median(tracer.durations("cdr.finalize", first_span)), "s");

  // core: the load grid, the 1-thread reference, and the §4 cell stages on
  // the cleaned data.
  core::CellLoad load;
  run.metric("core.load_build_s",
             time_median(run, "core.load_build", kProfileRepeats, [&] {
               load = core::CellLoad::from_background(trace.world.background);
             }),
             "s");
  // The load grid's payload: one float per cell and 15-minute bin of the
  // week.
  run.metric("core.load_mib",
             static_cast<double>(load.cell_count()) * time::kBins15PerWeek *
                 sizeof(float) / kMiB,
             "MiB");
  const BatchReference ref = batch_reference(run, dataset, cells, load);
  run.metric("core.study_1t_s",
             median(tracer.durations("core.study_1t", first_span)), "s");

  cdr::Dataset cleaned;
  cdr::CleanReport clean_report;
  run.metric("cdr.clean_s",
             time_median(run, "cdr.clean", kProfileRepeats, [&] {
               clean_report = {};
               cleaned = cdr::clean(dataset, {}, clean_report);
             }),
             "s");
  run.metric("cdr.clean_removed",
             static_cast<double>(clean_report.total_removed()), "count");
  run.metric("cdr.clean_kept_share",
             static_cast<double>(cleaned.size()) / records, "share");
  const core::StudyOptions defaults;
  core::ConcurrencyGrid grid;
  run.metric("core.grid_s",
             time_median(run, "core.grid", kProfileRepeats,
                         [&] { grid = core::ConcurrencyGrid::build(cleaned); }),
             "s");
  run.metric("core.cluster_s",
             time_median(run, "core.cluster", kProfileRepeats, [&] {
               const core::ConcurrencyClusters clusters =
                   core::cluster_busy_cells(grid, load,
                                            defaults.cluster_load_threshold,
                                            defaults.cluster_k,
                                            defaults.cluster_seed);
               (void)clusters;
             }),
             "s");
  cleaned = cdr::Dataset();

  // core + exec: run_study at width 4, with the pool's CPU share.
  std::vector<double> study_s;
  std::vector<double> efficiency;
  for (int i = 0; i < kProfileRepeats; ++i) {
    const double cpu0 = process_cpu_s();
    Span span(tracer, "core.study");
    const core::StudyReport report =
        core::run_study(dataset, cells, load, study_options(kWidth));
    const double wall = span.stop();
    study_s.push_back(wall);
    efficiency.push_back((process_cpu_s() - cpu0) / (wall * kWidth));
    std::string why;
    run.check(core::study_reports_identical(report, ref.report, &why),
              "profile run_study vs 1-thread reference", why);
  }
  run.metric("core.study_s", median(study_s), "s");
  run.metric("exec.parallel_efficiency", median(efficiency), "share");

  // cdr + core: the same records as a CCDR2 file.
  const std::string dir = run.work_dir + "/data";
  fs::create_directories(dir);
  const std::string path =
      dir + "/profile-" + std::to_string(run.seed) + ".ccdr2";
  cdr::write_columnar(dataset, path);
  dataset = cdr::Dataset();
  const double file_mib = static_cast<double>(fs::file_size(path)) / kMiB;
  run.metric("cdr.columnar_mib", file_mib, "MiB");
  const core::StudyReport columnar_ref = columnar_reference(path, cells, load);

  const core::StudyOptions options = columnar_options(kWidth);
  std::vector<cdr::ColumnarFile> files;
  cdr::IngestReport open_report;
  run.metric("cdr.columnar_open_s",
             time_median(run, "cdr.columnar_open", kProfileRepeats, [&] {
               files.clear();
               open_report = {};
               open_report.mode = options.ingest.mode;
               files.push_back(cdr::ColumnarFile::open(path, options.ingest,
                                                       open_report));
             }),
             "s");
  const cdr::ColumnarFile& file = files.back();

  // Block decode alone: decode_block over every block, CRC included.
  cdr::ColumnBlock block;
  bool decoded = true;
  const double decode_s =
      time_median(run, "cdr.columnar_decode", kProfileRepeats, [&] {
        for (std::size_t b = 0; b < file.blocks().size(); ++b) {
          decoded &= file.decode_block(b, block) ==
                     cdr::ColumnarFile::DecodeStatus::kOk;
        }
      });
  run.check(decoded, "profile decode_block over every block");
  run.metric("cdr.columnar_decode_s", decode_s, "s");
  run.metric("cdr.columnar_decode_mib_per_s", file_mib / decode_s, "MiB/s");

  for (const int threads : {1, kWidth}) {
    core::StudyOptions with = options;
    with.threads = threads;
    const std::string name =
        threads == 1 ? "core.study_columnar_1t" : "core.study_columnar";
    std::vector<core::StudyReport> reports;
    run.metric(name + "_s",
               time_median(run, name, threads == 1 ? 1 : kProfileRepeats,
                           [&] {
                             reports.push_back(core::run_study_columnar(
                                 file, cells, load, with, open_report));
                           }),
               "s");
    for (const core::StudyReport& report : reports) {
      std::string why;
      run.check(core::study_reports_identical(report, columnar_ref, &why),
                "profile " + name + " vs read_columnar + run_study", why);
    }
  }
  files.clear();
  fs::remove(path);
  return ref;
}

}  // namespace perfbench
