// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Generates the workload's inputs from the seed (outside every timed
// section), runs it for about S seconds, checks every output against a
// reference computed by a different path, and prints one JSON object as
// the last line of stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics of the workload. --trace 1
// alternates traced and untraced calls of the workload for the tracing
// overhead, then profiles every layer on the paper_default trace of the
// seed, and reports the per-layer metrics. It also writes
// DIR/trace/<workload>-<seed>.trace.json (Chrome trace events) and
// DIR/trace/<workload>-<seed>.summary.json (per-span totals with self time,
// plus the worst live-phase lag slice and the span active then).
// Exits 1 when any output check fails, 2 on usage errors, 3 when built with a
// sanitizer or without optimisation (such a build must not report numbers) or
// when the RSS high-water mark cannot be reset.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "inputs.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSE "a sanitizer build"
#elif !defined(__OPTIMIZE__)
#define PERFBENCH_REFUSE "an unoptimised build"
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The layer profile: the same calls into every layer in every workload's
/// traced run, so each traced run reports every per-layer metric.
void profile_layers(perfbench::Run& run) {
  run.tracer.set_enabled(true);
  perfbench::Span generate(run.tracer, "bench.generate");
  const perfbench::PaperTrace trace = perfbench::make_paper_trace(run.seed);
  generate.stop();
  const perfbench::BatchReference ref =
      perfbench::profile_batch_layers(run, trace);
  perfbench::profile_stream_layers(run, trace, ref);
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload batch-inmem|batch-columnar|"
               "stream-live|dist-failover --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("missing argument value");

#ifdef PERFBENCH_REFUSE
  std::cerr << "perfbench: refusing to report from " PERFBENCH_REFUSE
               " (build type " PERFBENCH_BUILD_TYPE
               "); rebuild optimised without -fsanitize\n";
  return 3;
#endif

  using Workload = void (*)(perfbench::Run&);
  const std::map<std::string, Workload> workloads = {
      {"batch-inmem", perfbench::run_batch_inmem},
      {"batch-columnar", perfbench::run_batch_columnar},
      {"stream-live", perfbench::run_stream_live},
      {"dist-failover", perfbench::run_dist_failover},
  };
  const std::string name = args.count("workload") ? args["workload"] : "";
  const auto workload = workloads.find(name);
  if (workload == workloads.end()) return usage("unknown --workload");

  perfbench::Run run;
  try {
    run.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    run.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    run.trace = (args.count("trace") ? args["trace"] : "0") == "1";
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  run.work_dir =
      args.count("work-dir") ? args["work-dir"] : ".bench_build/perfbench-work";

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string env =
      "\"env\":{\"workload\":" + json_string(name) +
      ",\"seed\":" + std::to_string(run.seed) +
      ",\"seconds\":" + std::to_string(run.seconds) +
      ",\"nproc\":" + std::to_string(nproc) +
      ",\"cpu\":" + json_string(cpu_model()) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}";
  std::cout << "{" << env << "}\n";

  try {
    workload->second(run);
    if (run.trace) profile_layers(run);
  } catch (const perfbench::Refusal& e) {
    std::cerr << "perfbench: refusing to report: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << name << " threw: " << e.what() << "\n";
    ++run.attempted;
    ++run.failed;
  }

  if (run.trace) {
    const std::string dir = run.work_dir + "/trace";
    std::filesystem::create_directories(dir);
    const std::string stem =
        dir + "/" + name + "-" + std::to_string(run.seed);
    std::ofstream(stem + ".trace.json") << run.tracer.chrome_json();
    std::string extra = env;
    for (const std::string& note : run.notes) extra += "," + note;
    std::ofstream(stem + ".summary.json") << run.tracer.summary_json(extra);
    std::cout << "trace: " << stem << ".trace.json, " << stem
              << ".summary.json\n";
  }

  const bool correct = run.failed == 0 && run.attempted > 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [metric, m] : run.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) line += ", ";
    first = false;
    line += json_string(metric) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
