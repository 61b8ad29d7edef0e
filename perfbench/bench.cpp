#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::string proc_dir(int pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

/// A "Vm...:" field of /proc/<pid>/status in MiB, 0 if absent.
double status_mib(int pid, std::string_view field) {
  std::ifstream in(proc_dir(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

bool clear_peak_rss(int pid) {
  std::ofstream out(proc_dir(pid) + "/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void reset_peak_rss() {
  // Hand freed heap back first, so the mark starts from live data only.
  ::malloc_trim(0);
  if (!clear_peak_rss(0)) {
    throw Refusal(
        "cannot reset the RSS high-water mark through "
        "/proc/self/clear_refs, so peak_rss_mib would cover the whole "
        "process lifetime");
  }
}

double peak_rss_mib(int pid) { return status_mib(pid, "VmHWM:"); }

double rss_mib(int pid) { return status_mib(pid, "VmRSS:"); }

std::vector<int> child_pids() {
  std::vector<int> pids;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(task.path() / "children");
    int pid = 0;
    while (in >> pid) pids.push_back(pid);
  }
  return pids;
}

void log_samples(std::string_view label, const std::vector<double>& values) {
  if (values.empty()) return;
  std::cerr << "[perfbench] " << label << ":";
  for (const double v : values) std::cerr << " " << v;
  std::cerr << "\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t sim_seed(std::uint64_t seed) {
  // splitmix64 finaliser: neighbouring benchmark seeds give unrelated
  // simulator seeds.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Run::check(bool ok, std::string_view what, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "[perfbench] check failed: " << what;
  if (!why.empty()) std::cerr << " (" << why << ")";
  std::cerr << "\n";
}

// ---- Tracer ---------------------------------------------------------------

int Tracer::begin(std::string_view name, double start_s) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), start_s, start_s, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id, double end_s) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = end_s;
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void Tracer::rename(int id, std::string name) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].name = std::move(name);
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::size_t first) const {
  std::vector<double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

int Tracer::active_at(double t, std::string_view skip) const {
  int best = -1;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.start_s > t || s.end_s < t || s.name == skip) continue;
    // Later-opened covering spans are nested deeper.
    best = static_cast<int>(i);
  }
  return best;
}

namespace {

std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string Tracer::chrome_json() const {
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":" + json_quoted(s.name) + ",\"cat\":" +
           json_quoted(s.name.substr(0, s.name.find('.'))) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           num((s.start_s - origin) * 1e6) +
           ",\"dur\":" + num((s.end_s - s.start_s) * 1e6) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  return out + "]}\n";
}

std::string Tracer::summary_json(const std::string& extra) const {
  struct Totals {
    std::size_t count = 0;
    double total = 0;
    double self = 0;
    double max = 0;
  };
  // Child coverage per span: children of one parent never overlap (the
  // tracer is single-threaded), so their durations add.
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_s - spans_[i].start_s;
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total += d;
    t.self += d - child[i];
    t.max = std::max(t.max, d);
  }
  std::string out = "{\"layers\":{";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    if (!first) out += ",\n";
    first = false;
    out += json_quoted(name) + ":{\"count\":" + std::to_string(t.count) +
           ",\"total_s\":" + num(t.total) + ",\"self_s\":" + num(t.self) +
           ",\"max_s\":" + num(t.max) + "}";
  }
  out += "}";
  if (!extra.empty()) out += "," + extra;
  return out + "}\n";
}

// ---- Span -----------------------------------------------------------------

Span::Span(Tracer& tracer, std::string_view name)
    : tracer_(tracer), start_(now_s()) {
  id_ = tracer_.begin(name, start_);
}

double Span::stop() {
  if (seconds_ < 0) {
    const double end = now_s();
    seconds_ = end - start_;
    tracer_.end(id_, end);
  }
  return seconds_;
}

}  // namespace perfbench
