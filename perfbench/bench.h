// Shared pieces of the repository benchmark: the run context every workload
// fills, the span tracer, and the clock / memory probes.
//
// The benchmark measures the library from outside: every timed region is a
// call into a public entry point of cdr, core, exec, stream or dist, wrapped
// in a Span named "<module>.<call>". With tracing off a Span is only a
// stopwatch; with tracing on it is also recorded (start, end, parent) and
// written at exit as Chrome trace-event JSON plus a per-layer summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_s();

/// CPU time (user + system) of the whole process, all threads, in seconds.
[[nodiscard]] double process_cpu_s();

/// Thrown when a run cannot measure what it must report; main() prints the
/// reason and exits 3 without a result.
struct Refusal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Resets the kernel's RSS high-water mark (VmHWM) to the current RSS by
/// writing "5" to /proc/self/clear_refs, after returning freed heap to the
/// kernel. Throws Refusal if the kernel refused: the lifetime mark would
/// include generation and the references.
void reset_peak_rss();

/// Resets the VmHWM of process `pid` (0: this process); false if refused.
bool clear_peak_rss(int pid);

/// VmHWM and VmRSS of process `pid` (0: this process) in MiB, 0 if /proc
/// has no figure for it.
[[nodiscard]] double peak_rss_mib(int pid = 0);
[[nodiscard]] double rss_mib(int pid);

/// Pids of this process's live child processes.
[[nodiscard]] std::vector<int> child_pids();

/// Prints a labelled sample to stderr (diagnostics; stdout carries the
/// result).
void log_samples(std::string_view label, const std::vector<double>& values);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One recorded span.
struct SpanRecord {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 at top level
};

/// In-memory span recorder. Single-threaded: the benchmark makes every call
/// into the library from its one feed thread.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int begin(std::string_view name, double start_s);
  void end(int id, double end_s);
  /// Renames an open or closed span (e.g. a push during which a worker
  /// restarted becomes "dist.push_recovery").
  void rename(int id, std::string name);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations of every span called `name` from span index `first` on, in
  /// recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::size_t first = 0) const;

  /// Innermost span whose interval covers `t` and that is not called
  /// `skip`; -1 if none.
  [[nodiscard]] int active_at(double t, std::string_view skip = {}) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string chrome_json() const;

  /// Per-name totals: count, total, self (total minus the part of the
  /// interval its child spans cover) and max, in seconds.
  [[nodiscard]] std::string summary_json(const std::string& extra) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  bool enabled_ = false;
};

/// RAII timed region around one call into the library. Always measures;
/// records into the tracer only while tracing is enabled.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now (idempotent) and returns its duration in seconds.
  double stop();
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] double start_s() const { return start_; }

 private:
  Tracer& tracer_;
  int id_ = -1;
  double start_ = 0;
  double seconds_ = -1;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run produces.
struct Run {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch files (inputs on disk, traces)
  Tracer tracer;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form facts for the summary file (worst lag slice, ...), as JSON
  /// object members without the surrounding braces.
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Books one checked operation; prints the reason of a failure to stderr.
  void check(bool ok, std::string_view what, const std::string& why = {});
};

/// Minimum measured calls per run (per side in a traced run).
inline constexpr std::size_t kMinRepeats = 3;

/// Wall times of the measured calls: `off` with tracing off, `on` with it
/// on (traced runs only).
struct Timings {
  std::vector<double> off;
  std::vector<double> on;
};

/// Calls `call` once to warm up (first-touch page faults, the allocator's
/// mmap threshold), then repeats it for the run's measuring time, and at
/// least kMinRepeats times per side, returning each repeat's wall time. A
/// traced run alternates traced and untraced calls, so the two throughputs
/// of the same run give bench.trace_overhead_share. `call` checks its own
/// output, the warm-up's too.
template <typename Call>
Timings repeat_for(Run& run, Call&& call) {
  run.tracer.set_enabled(false);
  call();
  Timings t;
  const double until = now_s() + run.seconds;
  while (t.off.size() < kMinRepeats ||
         (run.trace && t.on.size() < kMinRepeats) || now_s() < until) {
    const bool traced = run.trace && (t.on.size() + t.off.size()) % 2 == 0;
    run.tracer.set_enabled(traced);
    const double wall = call();
    (traced ? t.on : t.off).push_back(wall);
  }
  run.tracer.set_enabled(run.trace);
  return t;
}

inline void log_timings(const Timings& t) {
  log_samples("measured calls (s), tracing off", t.off);
  log_samples("measured calls (s), tracing on", t.on);
}

inline void report_overhead(Run& run, const Timings& t) {
  // records/s ratio: the record count cancels.
  const double on = 1.0 / median(t.on);
  const double off = 1.0 / median(t.off);
  run.metric("bench.trace_overhead_share", (on - off) / off, "share");
}

/// Study-scale seed for the simulator, derived from the benchmark seed.
[[nodiscard]] std::uint64_t sim_seed(std::uint64_t seed);

// Workloads (batch.cpp, streaming.cpp).
void run_batch_inmem(Run& run);
void run_batch_columnar(Run& run);
void run_stream_live(Run& run);
void run_dist_failover(Run& run);

}  // namespace perfbench
