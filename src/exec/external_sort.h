// External chunked sort: spill sorted runs to disk, k-way merge them back.
//
// The determinism argument extends exec/parallel_sort.h's: records are cut
// into fixed-capacity runs in arrival order, each run is stable-sorted
// (via parallel_stable_sort, itself equivalent to std::stable_sort for any
// pool width), and the k-way merge pops the smallest head, breaking
// comparator ties by run index — i.e. by original arrival order, since runs
// are spilled in arrival order and are stable within. The merged output is
// therefore the unique stable ordering of the whole input, identical to
// what one std::stable_sort over everything would produce, regardless of
// the run partition, the buffer capacity, or the thread count. With a
// total-order comparator (cdr::ByCarThenStart compares every field) ties
// cannot occur at all and the output equals std::sort's.
//
// This is what lets Dataset::finalize's ordering exist for datasets that
// never fit in RAM: the 1M-car bench generates records car by car, pushes
// them through an ExternalSorter, and streams the merged order directly
// into a ColumnarWriter with peak memory = buffer + merge windows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_sort.h"
#include "exec/thread_pool.h"

namespace ccms::exec {

/// Default in-memory run capacity, in records. 8M 16-byte records ≈ 128 MiB
/// of buffer — small against the 25%-of-AoS RSS budget, large enough that a
/// 90-day 1M-car study spills ~100 runs (one merge level).
inline constexpr std::size_t kDefaultRunRecords = std::size_t{1} << 23;

/// Out-of-core stable sorter for trivially-copyable records.
///
///   ExternalSorter<Connection, ByCarThenStart> sorter(opts);
///   for (...) sorter.add(record);
///   sorter.merge([&](const Connection& c) { writer.add(c); });
///
/// Runs are raw arrays of T in temp files under `spill_dir`; the files are
/// removed on merge completion and in the destructor.
template <typename T, typename Cmp>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  struct Options {
    std::string spill_dir;  ///< where run files go (must exist)
    std::size_t run_records = kDefaultRunRecords;
    int threads = 1;  ///< pool width for the in-memory run sorts
    /// Records per merge-window refill, per run. 64k records * ~100 runs
    /// ≈ 100 MiB of merge windows at 16 B/record.
    std::size_t window_records = std::size_t{1} << 16;
  };

  explicit ExternalSorter(Options options, Cmp cmp = {})
      : options_(std::move(options)), cmp_(cmp), pool_(options_.threads) {
    options_.run_records = std::max<std::size_t>(1, options_.run_records);
    options_.window_records = std::max<std::size_t>(1, options_.window_records);
    buffer_.reserve(options_.run_records);
  }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  ~ExternalSorter() { remove_runs(); }

  void add(const T& item) {
    buffer_.push_back(item);
    ++total_;
    if (buffer_.size() >= options_.run_records) spill();
  }

  [[nodiscard]] std::uint64_t size() const { return total_; }
  [[nodiscard]] std::uint64_t bytes_spilled() const { return bytes_spilled_; }
  /// Runs spilled so far, including the tail run merge() spills. Like
  /// bytes_spilled(), it still reads true after merge() removed the files.
  [[nodiscard]] std::size_t run_count() const { return runs_spilled_; }

  /// Emits every record in stable sorted order. If nothing was spilled the
  /// merge is a plain in-memory sweep. Call once; run files are removed
  /// afterwards.
  template <typename Emit>
  void merge(Emit&& emit) {
    if (runs_.empty()) {
      parallel_stable_sort(pool_, buffer_, cmp_);
      for (const T& item : buffer_) emit(item);
      buffer_.clear();
      buffer_.shrink_to_fit();
      return;
    }
    if (!buffer_.empty()) spill();
    buffer_.shrink_to_fit();

    std::vector<RunReader> readers;
    readers.reserve(runs_.size());
    for (const std::string& path : runs_) {
      readers.emplace_back(path, options_.window_records);
    }

    // Min-heap over run heads; ties break toward the lower run index, which
    // is the earlier arrival position — the stable order.
    struct Head {
      T value;
      std::size_t run;
    };
    const auto greater = [this](const Head& a, const Head& b) {
      if (cmp_(a.value, b.value)) return false;
      if (cmp_(b.value, a.value)) return true;
      return a.run > b.run;
    };
    std::priority_queue<Head, std::vector<Head>, decltype(greater)> heap(
        greater);
    for (std::size_t r = 0; r < readers.size(); ++r) {
      T v;
      if (readers[r].next(v)) heap.push(Head{v, r});
    }
    while (!heap.empty()) {
      Head head = heap.top();
      heap.pop();
      emit(head.value);
      T v;
      if (readers[head.run].next(v)) heap.push(Head{v, head.run});
    }
    readers.clear();
    remove_runs();
  }

 private:
  /// Buffered sequential reader over one spilled run.
  class RunReader {
   public:
    RunReader(const std::string& path, std::size_t window)
        : file_(std::fopen(path.c_str(), "rb")), window_(window) {
      if (file_ == nullptr) {
        throw std::runtime_error("external sort: cannot reopen run " + path);
      }
    }
    RunReader(RunReader&& o) noexcept
        : file_(o.file_), window_(o.window_), chunk_(std::move(o.chunk_)),
          pos_(o.pos_) {
      o.file_ = nullptr;
    }
    RunReader(const RunReader&) = delete;
    ~RunReader() {
      if (file_ != nullptr) std::fclose(file_);
    }

    bool next(T& out) {
      if (pos_ >= chunk_.size()) {
        chunk_.resize(window_);
        const std::size_t got =
            std::fread(chunk_.data(), sizeof(T), window_, file_);
        chunk_.resize(got);
        pos_ = 0;
        if (got == 0) return false;
      }
      out = chunk_[pos_++];
      return true;
    }

   private:
    std::FILE* file_ = nullptr;
    std::size_t window_;
    std::vector<T> chunk_;
    std::size_t pos_ = 0;
  };

  void spill() {
    parallel_stable_sort(pool_, buffer_, cmp_);
    const std::string path =
        (std::filesystem::path(options_.spill_dir) /
         ("ccms_sort_run_" + std::to_string(runs_.size()) + ".bin"))
            .string();
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
      throw std::runtime_error("external sort: cannot create run " + path);
    }
    const std::size_t wrote =
        std::fwrite(buffer_.data(), sizeof(T), buffer_.size(), out);
    const bool ok = wrote == buffer_.size() && std::fclose(out) == 0;
    if (!ok) {
      std::remove(path.c_str());
      throw std::runtime_error("external sort: short write to " + path);
    }
    bytes_spilled_ += static_cast<std::uint64_t>(wrote) * sizeof(T);
    runs_.push_back(path);
    ++runs_spilled_;
    buffer_.clear();
  }

  void remove_runs() {
    for (const std::string& path : runs_) std::remove(path.c_str());
    runs_.clear();
  }

  Options options_;
  Cmp cmp_;
  ThreadPool pool_;
  std::vector<T> buffer_;
  std::vector<std::string> runs_;
  std::size_t runs_spilled_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t bytes_spilled_ = 0;
};

}  // namespace ccms::exec
