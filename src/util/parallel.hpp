#pragma once
// Shared parallel execution engine.
//
// One persistent thread pool serves every sweep-shaped workload in the
// library — grid-search candidates, per-sample feature extraction, backprop
// multi-start restarts, node-parallel gradient kernels — instead of each
// call site spawning and joining its own std::thread batch. Workers are
// created once (lazily, on first parallel_for) and block on a condition
// variable between jobs, so repeated small sweeps pay no thread start-up
// cost.
//
// Determinism contract: parallel_for(n, body) calls body(i) exactly once for
// every i in [0, n). Bodies must write only to index-i-owned state; under
// that contract results are bit-identical for any thread count, because no
// output depends on scheduling order. Stochastic bodies must derive their
// randomness from parallel_seed(base, i) (a pure hash), never from a shared
// RNG stream.
//
// Nesting: a parallel_for issued from inside a worker body runs serially on
// that worker (the pool is never re-entered), so composed layers — e.g.
// multi-start restarts whose inner fit extracts features — stay deadlock-free
// and deterministic without call sites coordinating thread budgets.
//
// Exceptions: the first exception thrown by any body cancels the remaining
// blocks and is rethrown on the calling thread once the job drains.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace dfr {

struct ParallelOptions {
  /// Upper bound on threads used for this job, including the calling thread.
  /// 0 = use every pool worker; 1 = run serially on the caller.
  unsigned threads = 0;
  /// Indices handed to a thread per scheduling step. Raise it when the body
  /// is cheap so scheduling overhead amortizes; results do not depend on it.
  std::size_t grain = 1;
};

/// Persistent worker pool. Most code should use the free parallel_for over
/// the process-wide pool (global_pool()) rather than constructing one.
class ThreadPool {
 public:
  /// Creates `workers` blocked worker threads (callers participate in jobs,
  /// so total parallelism is workers + 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept;

  /// Runs body(i) once for every i in [0, n); blocks until all complete.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& body,
                      ParallelOptions options = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Single-thread FIFO runner for fire-and-forget background work (artifact
/// prefetch, deferred maintenance) — deliberately separate from ThreadPool,
/// whose one-blocking-job design cannot host detached tasks. Tasks run in
/// post() order on one dedicated thread; exceptions a task throws are
/// swallowed (background work is advisory — a broken input surfaces as a
/// typed error on the foreground path that eventually needs it, not as a
/// crash from a thread nobody is joining). The destructor finishes every
/// task already posted, then joins.
class BackgroundQueue {
 public:
  BackgroundQueue();
  ~BackgroundQueue();

  BackgroundQueue(const BackgroundQueue&) = delete;
  BackgroundQueue& operator=(const BackgroundQueue&) = delete;

  /// Enqueue `task` (FIFO). Safe from any thread, including from inside a
  /// running task.
  void post(std::function<void()> task);

  /// Block until the queue is empty AND no task is mid-run. Tests use this
  /// to make background effects deterministic before asserting on them.
  void drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide pool (hardware_threads() - 1 workers, lazily created).
ThreadPool& global_pool();

/// std::thread::hardware_concurrency clamped to at least 1.
unsigned hardware_threads() noexcept;

/// Runs body(i) for i in [0, n) on the global pool. options.threads caps the
/// worker count (0 = all cores); nested calls degrade to a serial loop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ParallelOptions options = {});

/// Chunked per-worker-state fan-out: runs body(state, i) once for every i in
/// [0, n), with one state built by make_state() per contiguous chunk, so
/// scratch (an inference engine, a streaming forward) is reused across a
/// chunk's indices. When each body invocation depends only on index i (the
/// state carries no result across calls), results are bit-identical for any
/// `threads` value (0 = all cores, 1 = serial — the parallel_for
/// convention). Used by classify_batch and the batch feature extractor.
template <typename MakeState, typename Body>
void for_each_with_engine(std::size_t n, unsigned threads,
                          const MakeState& make_state, const Body& body) {
  if (n == 0) return;
  const std::size_t slots = threads == 0 ? hardware_threads() : threads;
  const std::size_t chunks = std::min(n, slots * 4);  // mild oversubscription
  parallel_for(
      chunks,
      [&](std::size_t c) {
        auto state = make_state();
        const std::size_t lo = c * n / chunks;
        const std::size_t hi = (c + 1) * n / chunks;
        for (std::size_t i = lo; i < hi; ++i) body(state, i);
      },
      {.threads = threads});
}

/// Deterministic per-index seed stream: a pure hash of (base_seed, index),
/// identical for every thread count and scheduling order.
std::uint64_t parallel_seed(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// True while the calling thread is inside a parallel_for body (used by the
/// nesting guard; exposed for tests and diagnostics).
bool inside_parallel_region() noexcept;

}  // namespace dfr
