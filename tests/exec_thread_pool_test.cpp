// Unit tests of the deterministic executor: exec::ThreadPool and the
// chunked reductions in exec/parallel.h.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.h"

namespace ccms::exec {
namespace {

TEST(ThreadPoolTest, EmptyInputRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleItem) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::size_t seen = 999;
  pool.parallel_for(1, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, EachIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;  // far more items than threads
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolOfOneOwnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // caller thread => no data race
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool must survive a throwing job and run the next one fully.
  std::atomic<int> calls{0};
  pool.parallel_for(100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, RethrowsTheLowestThrowingIndex) {
  // Index 5 throws late (after a sleep), index 50 throws at once: in
  // completion order 50 comes first on any pool wider than 1, but a
  // sequential loop would throw 5's, and so must every width.
  for (const int width : {1, 2, 4, 8}) {
    ThreadPool pool(width);
    for (int round = 0; round < 3; ++round) {
      try {
        pool.parallel_for(100, [&](std::size_t i) {
          if (i == 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("index 5");
          }
          if (i == 50) throw std::runtime_error("index 50");
        });
        ADD_FAILURE() << "no exception at width " << width;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 5") << "width " << width;
      }
    }
  }
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(6), 6);
}

TEST(ParallelReduceTest, MatchesSequentialSum) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 0.5);
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const double sum = parallel_reduce(
        pool, values.size(), /*chunk_size=*/64, [] { return 0.0; },
        [&](double& acc, std::size_t i) { acc += values[i]; },
        [](double& into, double from) { into += from; });
    // Every partial sum of these half-integers is exact in a double, so
    // the merge tree's grouping cannot round differently from the
    // sequential accumulate.
    EXPECT_EQ(sum, expected) << "threads=" << threads;
  }
}

// Chunk counts around the tree's power-of-two boundaries, at pool widths
// below, at and above them.
constexpr std::size_t kTreeChunkCounts[] = {1, 2, 3, 5, 63, 64, 65};
constexpr int kTreeWidths[] = {1, 2, 3, 8};

TEST(ParallelReduceTest, ConcatenationPreservesIndexOrder) {
  // Concatenation is associative but not commutative: any merge that
  // swapped its operands or joined non-adjacent ranges would show.
  constexpr std::size_t kChunk = 16;
  for (const std::size_t chunks : kTreeChunkCounts) {
    for (const int threads : kTreeWidths) {
      SCOPED_TRACE(testing::Message()
                   << "chunks=" << chunks << " threads=" << threads);
      ThreadPool pool(threads);
      const std::size_t n = chunks * kChunk - 5;  // short last chunk
      const std::vector<std::size_t> out = parallel_reduce(
          pool, n, kChunk, [] { return std::vector<std::size_t>{}; },
          [](std::vector<std::size_t>& acc, std::size_t i) {
            acc.push_back(i);
          },
          [](std::vector<std::size_t>& into, std::vector<std::size_t> from) {
            into.insert(into.end(), from.begin(), from.end());
          });
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i);
    }
  }
}

TEST(ParallelReduceTest, TreeMergesAdjacentRangesOnce) {
  // Each accumulator is the item range it covers; every merge is recorded.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty = true;
  };
  struct Merge {
    Range into;
    Range from;
  };
  for (const std::size_t chunks : kTreeChunkCounts) {
    for (const int threads : kTreeWidths) {
      SCOPED_TRACE(testing::Message()
                   << "chunks=" << chunks << " threads=" << threads);
      ThreadPool pool(threads);
      constexpr std::size_t kChunk = 4;
      const std::size_t n = chunks * kChunk - 1;  // short last chunk
      std::mutex mutex;
      std::vector<Merge> merges;
      const Range all = parallel_reduce(
          pool, n, kChunk, [] { return Range{}; },
          [](Range& acc, std::size_t i) {
            if (acc.empty) acc = Range{i, i, false};
            EXPECT_EQ(acc.end, i);
            acc.end = i + 1;
          },
          [&](Range& into, Range&& from) {
            {
              const std::lock_guard<std::mutex> lock(mutex);
              merges.push_back(Merge{into, from});
            }
            into.end = from.end;
          });
      EXPECT_EQ(all.begin, 0u);
      EXPECT_EQ(all.end, n);
      ASSERT_EQ(merges.size(), chunks - 1);
      for (const Merge& m : merges) {
        EXPECT_FALSE(m.into.empty);
        EXPECT_FALSE(m.from.empty);
        EXPECT_LT(m.into.begin, m.into.end);
        EXPECT_EQ(m.into.end, m.from.begin) << "ranges not adjacent";
        EXPECT_LT(m.from.begin, m.from.end);
      }
    }
  }
}

TEST(ParallelReduceTest, ZeroItemsReturnsEmptyAccumulator) {
  ThreadPool pool(4);
  const int acc = parallel_reduce(
      pool, 0, 64, [] { return 42; },
      [](int&, std::size_t) { FAIL() << "fold must not run"; },
      [](int&, int) { FAIL() << "merge must not run"; });
  EXPECT_EQ(acc, 42);
}

TEST(ParallelOverSpansTest, FoldsEverySpan) {
  const std::vector<int> spans = {3, 1, 4, 1, 5, 9, 2, 6};
  ThreadPool pool(2);
  const int total = parallel_over_spans(
      pool, spans, [] { return 0; }, [](int& acc, int s) { acc += s; },
      [](int& into, int from) { into += from; },
      /*chunk_size=*/2);
  EXPECT_EQ(total, 31);
}

}  // namespace
}  // namespace ccms::exec
