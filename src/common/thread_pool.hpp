#pragma once
// A small fixed-size worker pool with parallel_for helpers.
//
// All parallelism in fedsched is explicit (Core Guidelines CP rules): tasks
// are submitted as value-captured callables, results travel through futures,
// and the parallel_for family partitions an index range into contiguous
// blocks so each worker touches disjoint cache lines.
//
// Two properties matter for the FL runners built on top:
//  - Deterministic chunking: parallel_for_chunks splits [begin, end) into a
//    caller-chosen number of balanced contiguous chunks whose boundaries
//    depend only on (begin, end, chunks) — never on the pool size or on
//    scheduling — so per-chunk partial results always reduce in the same
//    order.
//  - Nesting safety: a task running on a pool thread may itself call
//    parallel_for on the same pool. While joining, the caller executes queued
//    tasks instead of blocking, so saturated pools cannot deadlock on nested
//    fork/join.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedsched::common {

class ThreadPool {
 public:
  /// fn(chunk_index, block_begin, block_end) for parallel_for_chunks.
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// threads == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Submit a nullary callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task]() mutable { (*task)(); });
    return fut;
  }

  /// Run fn(i) for i in [begin, end), split into contiguous blocks across the
  /// pool; blocks the caller until every index has been processed. Exceptions
  /// from fn propagate (first one wins). Safe to call from a pool task.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Block-wise variant: fn(block_begin, block_end) per block. The number of
  /// blocks tracks the pool size.
  void parallel_for_blocks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Deterministic variant: split [begin, end) into min(chunks, end - begin)
  /// balanced contiguous chunks whose boundaries are a pure function of the
  /// arguments, and run fn(chunk_index, chunk_begin, chunk_end) for each.
  /// The calling thread participates and helps drain the queue while joining.
  void parallel_for_chunks(std::size_t begin, std::size_t end, std::size_t chunks,
                           const ChunkFn& fn);

  /// The [lo, hi) range of chunk `c` under parallel_for_chunks' balanced
  /// partition (sizes differ by at most one; earlier chunks get the slack).
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_bounds(
      std::size_t begin, std::size_t end, std::size_t chunks, std::size_t c) noexcept;

  /// Chunk count that gives every chunk at most `grain` items: a pure
  /// function of (count, grain), never of the pool — the fixed-chunking
  /// building block behind the determinism contract (Conv2d sample chunks,
  /// the blocked GEMM's column panels).
  [[nodiscard]] static std::size_t grain_chunks(std::size_t count,
                                                std::size_t grain) noexcept {
    return grain == 0 ? count : (count + grain - 1) / grain;
  }

 private:
  struct ForkJoin;

  void enqueue(std::function<void()> task);
  /// Pop and run one queued task on the calling thread, if any.
  bool try_run_one();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool for library internals (lazily constructed, never torn
/// down before exit). Prefer passing an explicit pool where ownership matters.
/// Its users: Conv2d's sample chunks, the blocked GEMM's column panels, and
/// the fleet tier's chunked O(n) passes below (generation, cost views, the
/// sched/ planners' passes and selections, and the client-major round).
[[nodiscard]] ThreadPool& global_pool();

/// Items per chunk of the fleet tier's O(n) passes. Chunk boundaries depend
/// only on the item count, so reductions over per-chunk partials in chunk
/// order never depend on the pool. Up to 2^17 items (the coordinator's
/// 100k-client fleets) are one chunk, run inline on the caller.
inline constexpr std::size_t kChunkGrain = std::size_t{1} << 17;

/// Run fn(lo, hi) over the kChunkGrain chunks of [0, n) on global_pool();
/// returns the results in chunk order, for a fixed-order reduction. A single
/// chunk runs inline on the caller.
template <class Fn>
auto map_chunks(std::size_t n, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, std::size_t, std::size_t>;
  static_assert(!std::is_same_v<R, bool>, "vector<bool> slots are not thread-safe");
  std::vector<R> out(ThreadPool::grain_chunks(n, kChunkGrain));
  global_pool().parallel_for_chunks(
      0, n, out.size(),
      [&](std::size_t c, std::size_t lo, std::size_t hi) { out[c] = fn(lo, hi); });
  return out;
}

/// map_chunks for passes that only write per-item outputs.
template <class Fn>
void for_chunks(std::size_t n, Fn&& fn) {
  map_chunks(n, [&fn](std::size_t lo, std::size_t hi) {
    fn(lo, hi);
    return 0;
  });
}

/// Fold fn(acc, i) over each chunk of [0, n) from `init`, then fold the
/// chunk accumulators in chunk order with combine(total, part).
template <class T, class Fn, class Combine>
T reduce_chunks(std::size_t n, T init, Fn&& fn, Combine&& combine) {
  T total = init;
  for (T& part : map_chunks(n, [&](std::size_t lo, std::size_t hi) {
         T acc = init;
         for (std::size_t i = lo; i < hi; ++i) fn(acc, i);
         return acc;
       })) {
    total = combine(std::move(total), std::move(part));
  }
  return total;
}

}  // namespace fedsched::common
