// The streaming workloads and the stream/dist half of the layer profile.
// Both workloads run the paper_default trace through the catch-up phase:
//
//   catch-up  closed loop: the whole feed in arrival order, one push per
//             15-minute slice of stream time, then finish(); repeated on
//             fresh engines for the run's measuring time. stream-live
//             drives a stream::ShardedEngine with 3 shards, dist-failover a
//             dist::DistEngine with 3 worker processes, worker 1 crashed
//             once per engine.
//
// The layer profile adds the live phase on the ShardedEngine:
//
//   live      open loop on a fresh engine per replay: slice k is due at
//             T0 + end_of_slice_k / kLiveCompression, whatever the engine
//             did before, so a stall counts against every later slice. The
//             feed thread calls snapshot() every stream day and checkpoint()
//             + encode() every stream week (6 hours after each whole week).
//
// The compression factor is a constant: a faster engine gets the same
// offered load.
#include <malloc.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dist/supervisor.h"
#include "inputs.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/report.h"
#include "util/time.h"

namespace perfbench {
namespace {

constexpr int kShards = 3;
constexpr time::Seconds kSlice = time::kSecondsPerBin15;

/// Stream seconds per wall second in the live phase. The busiest
/// 15-minute slice then offers 1.4M records/s, about half the 3-shard
/// catch-up capacity on a 4-core Xeon VM (2.3-2.9M records/s).
constexpr double kLiveCompression = 450000.0;
/// Live replays per profile, each of the whole trace on a fresh engine: 56
/// snapshots in all.
constexpr int kLiveReplays = 2;
/// Catch-up engines per profile, for each engine type.
constexpr int kProfileCatchups = 3;

/// Snapshot and checkpoint cadence of the live phase, in stream time.
constexpr time::Seconds kSnapshotEvery = 24 * 3600;
constexpr time::Seconds kCheckpointEvery = 7 * 86400;
/// Checkpoints fall this long after a whole week of stream time, which is
/// never a snapshot time, so their stalls never stack.
constexpr time::Seconds kCheckpointOffset = 6 * 3600;

constexpr double kMiB = 1024.0 * 1024.0;

/// Engines constructed and torn down only to time set-up.
constexpr int kSetupRepeats = 51;

/// [first, last) record index per 15-minute slice of stream time.
std::vector<std::size_t> slice_bounds(
    const std::vector<cdr::Connection>& arrivals) {
  std::vector<std::size_t> bounds = {0};
  time::Seconds end = kSlice;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    while (arrivals[i].start >= end) {
      bounds.push_back(i);
      end += kSlice;
    }
  }
  bounds.push_back(arrivals.size());
  return bounds;
}

/// Waits until `due_s` on the steady clock: sleeps to just before it, then
/// spins, so the generator itself is not what runs late.
void wait_until(double due_s) {
  constexpr double kSpin = 200e-6;
  if (due_s - now_s() > kSpin) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(due_s - kSpin))));
  }
  while (now_s() < due_s) {
  }
}

/// What one engine type needs beyond the shared push/finish/snapshot/
/// checkpoint contract.
template <typename Engine>
struct Target;

template <>
struct Target<stream::ShardedEngine> {
  static constexpr const char* kLayer = "stream";
  stream::StreamConfig config;
  [[nodiscard]] std::unique_ptr<stream::ShardedEngine> make() const {
    return std::make_unique<stream::ShardedEngine>(config);
  }
};

template <>
struct Target<dist::DistEngine> {
  static constexpr const char* kLayer = "dist";
  dist::DistConfig config;
  std::uint64_t crash_after = 0;
  [[nodiscard]] std::unique_ptr<dist::DistEngine> make() const {
    dist::DistConfig c = config;
    c.faults[1] = {.crash_after = crash_after, .hang_after = 0,
                   .generations = 1};
    return std::make_unique<dist::DistEngine>(std::move(c));
  }
};

/// Per-run accumulation shared by both phases.
struct Observed {
  std::vector<double> setup_s;
  std::vector<double> push_total_s;  ///< per catch-up engine
  std::vector<double> finish_s;
  double push_max_s = 0;
  std::vector<double> lag_s;
  std::vector<double> snapshot_s;
  std::vector<double> checkpoint_s;
  std::vector<double> encode_s;
  std::vector<double> checkpoint_mib;
  double gen_late_max_s = 0;
  std::uint64_t late_records = 0;
  double coverage_min = 1.0;
  std::vector<double> restarts;
  std::vector<double> gap_replayed;
  std::uint64_t wire_faults = 0;
  /// Largest RSS growth of a catch-up worker over the image it was forked
  /// with; -1 until one is measured.
  double worker_growth_mib = -1;
  // Worst live slice: its lag, due time and the span active when it was due.
  double worst_lag_s = -1;
  double worst_due_s = 0;
  std::size_t worst_slice = 0;
};

template <typename Engine>
class Workload {
 public:
  Workload(Run& run, const Target<Engine>& target,
           const std::vector<cdr::Connection>& arrivals)
      : run_(run), target_(target), arrivals_(arrivals),
        bounds_(slice_bounds(arrivals)), layer_(Target<Engine>::kLayer) {}

  /// Constructs an engine, timed as set-up.
  std::unique_ptr<Engine> make_engine() {
    Span span(run_.tracer, layer_ + (std::is_same_v<Engine, dist::DistEngine>
                                         ? ".spawn"
                                         : ".engine_new"));
    auto engine = target_.make();
    obs_.setup_s.push_back(span.stop());
    return engine;
  }

  /// Constructs and tears down `n` engines; returns each constructor's wall
  /// time. The engines the phases construct are not among them: each
  /// follows the teardown of a whole run's engine, which makes its
  /// constructor slower, and their number grows with the measuring time.
  std::vector<double> set_up(int n) {
    const std::size_t first = obs_.setup_s.size();
    for (int i = 0; i < n; ++i) make_engine();
    return {obs_.setup_s.begin() + static_cast<std::ptrdiff_t>(first),
            obs_.setup_s.end()};
  }

  /// One timed push of slice `k`; returns when it returned.
  double push_slice(Engine& engine, std::size_t k) {
    const std::span<const cdr::Connection> slice(
        arrivals_.data() + bounds_[k], bounds_[k + 1] - bounds_[k]);
    Span span(run_.tracer, layer_ + ".push");
    const int restarts_before = restarts(engine);
    engine.push(slice);
    const double d = span.stop();
    if (restarts(engine) != restarts_before) {
      run_.tracer.rename(span.id(), layer_ + ".push_recovery");
    }
    obs_.push_max_s = std::max(obs_.push_max_s, d);
    return span.start_s() + d;
  }

  /// Books the engine's final report and delivery telemetry.
  stream::StreamReport close(Engine& engine, std::string_view phase) {
    stream::StreamReport report = engine.snapshot();
    obs_.late_records += engine.late_records();
    obs_.coverage_min = std::min(obs_.coverage_min, report.coverage_fraction);
    if constexpr (std::is_same_v<Engine, dist::DistEngine>) {
      obs_.restarts.push_back(engine.restarts_total());
      obs_.gap_replayed.push_back(
          static_cast<double>(engine.gap_replayed_records()));
      obs_.wire_faults += engine.wire_report().total_faults();
      run_.check(engine.restarts_total() >= 1 && engine.workers_lost() == 0,
                 std::string(phase) + ": worker 1 crashed and recovered",
                 "restarts " + std::to_string(engine.restarts_total()));
    }
    run_.check(healthy(report, arrivals_.size()),
               std::string(phase) + ": no record lost or degraded");
    return report;
  }

  /// Closed loop over the whole feed; returns the wall time from the first
  /// push to finish() returning, and the final report in `report`. With
  /// `watch`, also books the dist workers' own RSS growth.
  double catch_up(stream::StreamReport& report, bool watch = false) {
    auto engine = make_engine();
    if (watch) watch_workers();
    Span phase(run_.tracer, "bench.catchup");
    double pushed = 0;
    for (std::size_t k = 0; k + 1 < bounds_.size(); ++k) {
      const double t0 = now_s();
      pushed += push_slice(*engine, k) - t0;
    }
    if (watch) read_workers();
    Span finish(run_.tracer, layer_ + ".finish");
    engine->finish();
    obs_.finish_s.push_back(finish.stop());
    const double wall = phase.stop();
    obs_.push_total_s.push_back(pushed);
    report = close(*engine, "catch-up");
    return wall;
  }

  /// Open-loop replay of the whole feed at kLiveCompression. Returns the
  /// final report.
  stream::StreamReport live() {
    auto engine = make_engine();
    Span phase(run_.tracer, "bench.live");
    const double t0 = now_s() + 0.01;
    const auto due = [&](time::Seconds stream_t) {
      return t0 + static_cast<double>(stream_t) / kLiveCompression;
    };
    time::Seconds next_snapshot = kSnapshotEvery;
    time::Seconds next_checkpoint = kCheckpointEvery + kCheckpointOffset;
    std::size_t pushed = 0;
    for (std::size_t k = 0; k + 1 < bounds_.size(); ++k) {
      const time::Seconds slice_end =
          static_cast<time::Seconds>(k + 1) * kSlice;
      const double due_s = due(slice_end);
      if (now_s() < due_s) {
        wait_until(due_s);
        obs_.gen_late_max_s = std::max(obs_.gen_late_max_s, now_s() - due_s);
      }
      if (bounds_[k + 1] > bounds_[k]) {
        const double lag = push_slice(*engine, k) - due_s;
        obs_.lag_s.push_back(lag);
        if (lag > obs_.worst_lag_s) {
          obs_.worst_lag_s = lag;
          obs_.worst_due_s = due_s;
          obs_.worst_slice = k;
        }
        pushed = bounds_[k + 1];
      }
      if (slice_end >= next_snapshot) {
        const double snapshot_due = due(next_snapshot);
        Span span(run_.tracer, layer_ + ".snapshot");
        const stream::StreamReport snap = engine->snapshot();
        span.stop();
        obs_.snapshot_s.push_back(now_s() - snapshot_due);
        run_.check(healthy(snap, pushed), "live snapshot covers every push");
        next_snapshot += kSnapshotEvery;
      }
      if (slice_end >= next_checkpoint) {
        Span checkpoint(run_.tracer, layer_ + ".checkpoint");
        const stream::Checkpoint image = engine->checkpoint();
        obs_.checkpoint_s.push_back(checkpoint.stop());
        Span encode(run_.tracer, layer_ + ".encode");
        const std::vector<std::uint8_t> bytes = stream::encode(image);
        obs_.encode_s.push_back(encode.stop());
        obs_.checkpoint_mib.push_back(static_cast<double>(bytes.size()) /
                                      kMiB);
        next_checkpoint += kCheckpointEvery;
      }
    }
    Span finish(run_.tracer, layer_ + ".finish");
    engine->finish();
    finish.stop();
    phase.stop();
    return close(*engine, "live");
  }

  [[nodiscard]] const Observed& observed() const { return obs_; }

  /// The span active when the worst live slice fell due (a snapshot, a
  /// checkpoint, a recovering push), for the summary file.
  [[nodiscard]] std::string worst_note() const {
    const int active = run_.tracer.active_at(obs_.worst_due_s, "bench.live");
    const std::string what =
        active < 0 ? std::string("none")
                   : run_.tracer.spans()[static_cast<std::size_t>(active)]
                         .name;
    return "\"worst_lag\":{\"slice\":" + std::to_string(obs_.worst_slice) +
           ",\"stream_time_s\":" +
           std::to_string((obs_.worst_slice + 1) *
                          static_cast<std::size_t>(kSlice)) +
           ",\"lag_s\":" + std::to_string(obs_.worst_lag_s) +
           ",\"active_span\":\"" + what + "\"}";
  }

 private:
  /// Workers are forked without exec, so each starts with the router's
  /// resident image. Resets the high-water mark of every worker the
  /// constructor forked and notes its RSS then: the inherited image.
  void watch_workers() {
    workers_.clear();
    for (const int pid : child_pids()) {
      if (clear_peak_rss(pid)) workers_.emplace_back(pid, rss_mib(pid));
    }
  }

  /// Books each watched worker's growth over its inherited image. Called
  /// before finish(), after which workers exit. The crashed worker is gone
  /// by then, and its restarted successor was never watched.
  void read_workers() {
    for (const auto& [pid, inherited] : workers_) {
      const double peak = peak_rss_mib(pid);
      if (peak > 0) {
        obs_.worker_growth_mib =
            std::max(obs_.worker_growth_mib, peak - inherited);
      }
    }
  }

  static int restarts(Engine& engine) {
    if constexpr (std::is_same_v<Engine, dist::DistEngine>) {
      return engine.restarts_total();
    } else {
      (void)engine;
      return 0;
    }
  }

  /// A report loses nothing: every pushed record offered, nothing degraded.
  static bool healthy(const stream::StreamReport& r, std::size_t pushed) {
    return r.engine.records_offered == pushed && r.coverage_fraction == 1.0 &&
           r.degraded_shards.empty();
  }

  Run& run_;
  const Target<Engine>& target_;
  const std::vector<cdr::Connection>& arrivals_;
  const std::vector<std::size_t> bounds_;
  const std::string layer_;
  Observed obs_;
  /// dist, watched catch-ups: (pid, inherited RSS in MiB) per worker.
  std::vector<std::pair<int, double>> workers_;
};

/// The live phase's peak offered rate: the busiest slice's records per wall
/// second.
double peak_offered_per_s(const std::vector<cdr::Connection>& arrivals) {
  const std::vector<std::size_t> bounds = slice_bounds(arrivals);
  std::size_t peak = 0;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    peak = std::max(peak, bounds[k + 1] - bounds[k]);
  }
  return static_cast<double>(peak) * kLiveCompression /
         static_cast<double>(kSlice);
}

/// One streaming workload: engine set-up repeated, then catch-ups for the
/// run's measuring time, each final report checked by `verify`.
template <typename Engine>
void run_streaming(
    Run& run, const Target<Engine>& target,
    const std::vector<cdr::Connection>& arrivals,
    const std::function<void(const stream::StreamReport&)>& verify) {
  Workload<Engine> workload(run, target, arrivals);
  const std::vector<double> setup_s = workload.set_up(kSetupRepeats);
  log_samples("set-up (s)", setup_s);

  reset_peak_rss();
  const Timings t = repeat_for(run, [&] {
    stream::StreamReport report;
    const double wall = workload.catch_up(report);
    verify(report);
    return wall;
  });
  const double peak = peak_rss_mib();
  log_timings(t);
  if (run.trace) {
    report_overhead(run, t);
    return;
  }
  run.metric("setup_s", median(setup_s), "s");
  run.metric("records_per_s",
             static_cast<double>(arrivals.size()) / median(t.off),
             "records/s");
  run.metric("peak_rss_mib", peak, "MiB");
}

stream::StreamConfig stream_config(const sim::SimConfig& sim) {
  stream::StreamConfig config;
  config.shards = kShards;
  config.fleet_size = static_cast<std::uint32_t>(sim.fleet.size);
  config.study_days = sim.study_days;
  return config;
}

/// Worker 1 of a dist engine crashes once, at about half its share of the
/// feed.
Target<dist::DistEngine> dist_target(const stream::StreamConfig& config,
                                     std::size_t records) {
  Target<dist::DistEngine> target;
  target.config.stream = config;
  target.crash_after = records / (2 * kShards);
  return target;
}

}  // namespace

void run_stream_live(Run& run) {
  const PaperTrace trace = make_paper_trace(run.seed);

  // Reference: the batch-inmem reference for the same seed.
  BatchReference ref;
  {
    exec::ThreadPool pool(kWidth);
    const cdr::Dataset dataset =
        build_dataset(run, trace.arrivals, trace.world.config, pool);
    const core::CellLoad load =
        core::CellLoad::from_background(trace.world.background);
    ref = batch_reference(run, dataset, trace.world.topology.cells(), load);
  }

  Target<stream::ShardedEngine> target;
  target.config = stream_config(trace.world.config);
  run_streaming<stream::ShardedEngine>(
      run, target, trace.arrivals, [&](const stream::StreamReport& report) {
        const stream::ParityReport parity =
            stream::parity_against(report, ref.report, &ref.fleet_usage);
        run.check(parity.pass(), "catch-up final report vs batch reference");
      });
}

void run_dist_failover(Run& run) {
  // The router keeps only the feed: every worker inherits what it holds.
  std::vector<cdr::Connection> arrivals;
  stream::StreamConfig config;
  {
    PaperTrace trace = make_paper_trace(run.seed);
    config = stream_config(trace.world.config);
    arrivals = std::move(trace.arrivals);
  }

  // Reference: the stream-live final report, from the in-process engine.
  stream::StreamReport ref;
  {
    stream::ShardedEngine engine(config);
    engine.push(std::span<const cdr::Connection>(arrivals));
    engine.finish();
    ref = engine.snapshot();
  }

  run_streaming<dist::DistEngine>(
      run, dist_target(config, arrivals.size()), arrivals,
      [&](const stream::StreamReport& report) {
        std::string why;
        run.check(stream::reports_identical(report, ref, &why),
                  "catch-up final report vs in-process engine", why);
      });
}

void profile_stream_layers(Run& run, const PaperTrace& trace,
                           const BatchReference& ref) {
  const stream::StreamConfig config = stream_config(trace.world.config);

  // stream: catch-ups, then the live replays.
  Target<stream::ShardedEngine> target;
  target.config = config;
  Workload<stream::ShardedEngine> local(run, target, trace.arrivals);
  stream::StreamReport catchup_final;
  for (int i = 0; i < kProfileCatchups; ++i) {
    local.catch_up(catchup_final);
    const stream::ParityReport parity =
        stream::parity_against(catchup_final, ref.report, &ref.fleet_usage);
    run.check(parity.pass(), "profile catch-up vs batch reference");
  }
  for (int i = 0; i < kLiveReplays; ++i) {
    const stream::StreamReport live_final = local.live();
    std::string why;
    run.check(stream::reports_identical(live_final, catchup_final, &why),
              "live final report identical to catch-up", why);
  }
  const Observed& obs = local.observed();
  run.metric("stream.catchup_push_s", median(obs.push_total_s), "s");
  run.metric("stream.finish_s", median(obs.finish_s), "s");
  run.metric("stream.checkpoint_s", median(obs.checkpoint_s), "s");
  run.metric("stream.encode_s", median(obs.encode_s), "s");
  run.metric("stream.checkpoint_mib", median(obs.checkpoint_mib), "MiB");
  run.metric("stream.late_records", static_cast<double>(obs.late_records),
             "count");
  run.metric("stream.coverage", obs.coverage_min, "share");
  run.metric("stream.lag_p50_s", quantile(obs.lag_s, 0.5), "s");
  run.metric("stream.lag_p99_s", quantile(obs.lag_s, 0.99), "s");
  run.metric("stream.snapshot_p50_s", quantile(obs.snapshot_s, 0.5), "s");
  run.metric("stream.snapshot_p90_s", quantile(obs.snapshot_s, 0.9), "s");
  run.metric("bench.gen_late_max_s", obs.gen_late_max_s, "s");
  run.notes.push_back(
      "\"live\":{\"compression\":" + std::to_string(kLiveCompression) +
      ",\"snapshot_every_s\":" + std::to_string(kSnapshotEvery) +
      ",\"checkpoint_every_s\":" + std::to_string(kCheckpointEvery) +
      ",\"peak_offered_per_s\":" +
      std::to_string(peak_offered_per_s(trace.arrivals)) +
      ",\"slices\":" + std::to_string(obs.lag_s.size()) +
      ",\"snapshots\":" + std::to_string(obs.snapshot_s.size()) + "}");
  run.notes.push_back(local.worst_note());

  // dist: catch-ups with worker 1 crashed, each worker's own RSS watched.
  // Freed heap goes back to the kernel first, or a worker would grow into
  // the router's free pages it inherited without its RSS showing it.
  ::malloc_trim(0);
  const Target<dist::DistEngine> crashing =
      dist_target(config, trace.arrivals.size());
  Workload<dist::DistEngine> remote(run, crashing, trace.arrivals);
  const std::vector<double> spawn_s = remote.set_up(kSetupRepeats);
  for (int i = 0; i < kProfileCatchups; ++i) {
    stream::StreamReport report;
    remote.catch_up(report, /*watch=*/true);
    std::string why;
    run.check(stream::reports_identical(report, catchup_final, &why),
              "profile dist catch-up vs in-process engine", why);
  }
  const Observed& dist_obs = remote.observed();
  if (dist_obs.worker_growth_mib < 0) {
    throw Refusal(
        "no dist worker's RSS high-water mark could be reset through "
        "/proc/<pid>/clear_refs, so dist.worker_peak_rss_mib would be the "
        "router image the workers inherit");
  }
  run.metric("dist.spawn_s", median(spawn_s), "s");
  run.metric("dist.push_max_s", dist_obs.push_max_s, "s");
  run.metric("dist.restarts", median(dist_obs.restarts), "count");
  run.metric("dist.gap_replayed_records", median(dist_obs.gap_replayed),
             "count");
  run.metric("dist.wire_faults", static_cast<double>(dist_obs.wire_faults),
             "count");
  run.metric("dist.worker_peak_rss_mib", dist_obs.worker_growth_mib, "MiB");
}

}  // namespace perfbench
