// ExternalSorter: spill-and-merge output equals one std::stable_sort over
// the whole input for every run capacity and thread width, with exact
// spill accounting.
#include "exec/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cdr/record.h"

namespace ccms::exec {
namespace {

/// Per-test spill directory: ctest may run cases of this binary in
/// parallel processes, and run-file names are only unique per directory.
std::string spill_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ccms_external_sort_test_" + std::string(name));
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Key-value records with deliberate key collisions: a comparator on the
/// key alone is non-total, so stability is observable through `seq`.
struct KV {
  std::uint32_t key = 0;
  std::uint32_t seq = 0;
};
struct ByKey {
  bool operator()(const KV& a, const KV& b) const { return a.key < b.key; }
};

std::vector<KV> collision_input(std::size_t n) {
  std::vector<KV> input;
  input.reserve(n);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    input.push_back(KV{static_cast<std::uint32_t>(state % 37),
                       static_cast<std::uint32_t>(i)});
  }
  return input;
}

TEST(ExternalSortTest, MatchesStableSortAcrossRunCapacities) {
  const std::vector<KV> input = collision_input(1000);
  std::vector<KV> expected = input;
  std::stable_sort(expected.begin(), expected.end(), ByKey{});

  for (const std::size_t run_records :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{5000}}) {
    ExternalSorter<KV, ByKey> sorter(
        {.spill_dir = spill_dir("capacities"), .run_records = run_records,
         .window_records = 16});
    for (const KV& kv : input) sorter.add(kv);
    EXPECT_EQ(sorter.size(), input.size());

    std::vector<KV> merged;
    sorter.merge([&](const KV& kv) { merged.push_back(kv); });
    ASSERT_EQ(merged.size(), expected.size()) << "runs=" << run_records;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].key, expected[i].key) << i;
      EXPECT_EQ(merged[i].seq, expected[i].seq)
          << "stability broken at " << i << " with run_records="
          << run_records;
    }
  }
}

TEST(ExternalSortTest, SpillAccountingExact) {
  const std::vector<KV> input = collision_input(100);

  // Everything fits in one buffer: in-memory sweep, nothing spilled.
  {
    ExternalSorter<KV, ByKey> sorter(
        {.spill_dir = spill_dir("accounting"), .run_records = 1000});
    for (const KV& kv : input) sorter.add(kv);
    EXPECT_EQ(sorter.run_count(), 0u);
    EXPECT_EQ(sorter.bytes_spilled(), 0u);
    std::size_t emitted = 0;
    sorter.merge([&](const KV&) { ++emitted; });
    EXPECT_EQ(emitted, input.size());
  }

  // Forced spill: 100 records in runs of 16 -> 6 full runs spilled by
  // add(), the 4-record tail spilled at merge().
  {
    ExternalSorter<KV, ByKey> sorter(
        {.spill_dir = spill_dir("accounting"), .run_records = 16});
    for (const KV& kv : input) sorter.add(kv);
    EXPECT_EQ(sorter.run_count(), 6u);
    EXPECT_EQ(sorter.bytes_spilled(), 96u * sizeof(KV));
    std::size_t emitted = 0;
    sorter.merge([&](const KV&) { ++emitted; });
    EXPECT_EQ(emitted, input.size());
    EXPECT_EQ(sorter.bytes_spilled(), 100u * sizeof(KV));
    // Run files are removed once merged.
    std::size_t leftover = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir("accounting"))) {
      (void)entry;
      ++leftover;
    }
    EXPECT_EQ(leftover, 0u);
  }
}

TEST(ExternalSortTest, RunCountSurvivesMerge) {
  // perf_pipeline reads the spill accounting after merge(), which removes
  // the run files: the count must still say how many runs were spilled,
  // the tail run merge() spills included (100 records in runs of 16 -> 7).
  const std::vector<KV> input = collision_input(100);
  ExternalSorter<KV, ByKey> sorter(
      {.spill_dir = spill_dir("run_count"), .run_records = 16});
  for (const KV& kv : input) sorter.add(kv);
  sorter.merge([](const KV&) {});
  EXPECT_EQ(sorter.run_count(), 7u);
  EXPECT_EQ(sorter.bytes_spilled(), 100u * sizeof(KV));
}

TEST(ExternalSortTest, EmptyInputEmitsNothing) {
  ExternalSorter<KV, ByKey> sorter({.spill_dir = spill_dir("empty")});
  std::size_t emitted = 0;
  sorter.merge([&](const KV&) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(sorter.size(), 0u);
}

TEST(ExternalSortTest, ConnectionsUnderByCarThenStart) {
  // The production use: Connection records under the total-order
  // comparator, across thread widths. Total order -> output equals
  // std::sort and is width-independent.
  std::vector<cdr::Connection> input;
  std::uint64_t state = 12345;
  for (std::size_t i = 0; i < 600; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    input.push_back(cdr::Connection{
        CarId{static_cast<std::uint32_t>(state % 50)},
        CellId{static_cast<std::uint32_t>((state >> 8) % 20)},
        static_cast<time::Seconds>((state >> 16) % 100000),
        static_cast<std::int32_t>(1 + (state >> 32) % 3600)});
  }
  std::vector<cdr::Connection> expected = input;
  std::sort(expected.begin(), expected.end(), cdr::ByCarThenStart{});

  for (const int threads : {1, 2, 8}) {
    ExternalSorter<cdr::Connection, cdr::ByCarThenStart> sorter(
        {.spill_dir = spill_dir("connections"), .run_records = 128, .threads = threads});
    for (const cdr::Connection& c : input) sorter.add(c);
    std::vector<cdr::Connection> merged;
    sorter.merge([&](const cdr::Connection& c) { merged.push_back(c); });
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i], expected[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ccms::exec
