// Deterministic parallel reduction over indexed items (e.g. Dataset spans).
//
// The contract that makes run_study bitwise identical for any thread count:
//
//   1. Items [0, n) are cut into fixed-size chunks. Chunk boundaries depend
//      only on n and chunk_size — never on how many threads execute them.
//   2. Each chunk folds its items sequentially, in ascending index order,
//      into a chunk-local accumulator.
//   3. Chunk accumulators merge in a fixed-shape binary tree: at stride s
//      (1, 2, 4, ...) part[i] absorbs part[i + s] for every i that is a
//      multiple of 2s, so every merge joins two adjacent item ranges, the
//      absorbed one strictly after. The tree's shape depends only on the
//      chunk count; the merges of one level run in parallel.
//
// Threads only decide *when* a chunk is computed or merged, never *what* is
// computed or in which order results combine, so every floating-point
// operation sequence is identical across pool sizes (including 1). A merge
// that is associative (integer sums, set unions, canonical run merges,
// in-order concatenation) also gives exactly the sequential fold's result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "exec/thread_pool.h"

namespace ccms::exec {

/// Default chunk width for span sweeps: small enough to load-balance a
/// skewed fleet across 8+ threads, large enough to amortise the per-chunk
/// accumulator setup.
inline constexpr std::size_t kDefaultChunk = 64;

/// Folds items [0, n) into one accumulator. `make()` builds an empty
/// accumulator, `fold(acc, i)` integrates item i, `merge(into, from)`
/// combines two accumulators whose item ranges are adjacent (`from`
/// strictly after `into`); merges of disjoint pairs may run concurrently.
/// Returns make() for n == 0.
template <typename MakeFn, typename FoldFn, typename MergeFn>
auto parallel_reduce(ThreadPool& pool, std::size_t n, std::size_t chunk_size,
                     const MakeFn& make, const FoldFn& fold,
                     const MergeFn& merge) {
  using Acc = decltype(make());
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  if (chunks <= 1) {
    Acc acc = make();
    for (std::size_t i = 0; i < n; ++i) fold(acc, i);
    return acc;
  }

  std::vector<std::optional<Acc>> parts(chunks);
  pool.parallel_for(chunks, [&](std::size_t c) {
    Acc acc = make();
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    for (std::size_t i = begin; i < end; ++i) fold(acc, i);
    parts[c].emplace(std::move(acc));
  });

  for (std::size_t stride = 1; stride < chunks; stride *= 2) {
    const std::size_t pairs = (chunks + stride - 1) / (2 * stride);
    pool.parallel_for(pairs, [&](std::size_t k) {
      const std::size_t into = k * 2 * stride;
      merge(*parts[into], std::move(*parts[into + stride]));
      parts[into + stride].reset();
    });
  }
  return std::move(*parts[0]);
}

/// parallel_reduce over a materialised span list (Dataset::car_spans()):
/// fold(acc, span) is called for every span, chunked and merged
/// deterministically as above.
template <typename Span, typename MakeFn, typename FoldFn, typename MergeFn>
auto parallel_over_spans(ThreadPool& pool, const std::vector<Span>& spans,
                         const MakeFn& make, const FoldFn& fold,
                         const MergeFn& merge,
                         std::size_t chunk_size = kDefaultChunk) {
  return parallel_reduce(
      pool, spans.size(), chunk_size, make,
      [&](auto& acc, std::size_t i) { fold(acc, spans[i]); }, merge);
}

}  // namespace ccms::exec
