// Persistent thread pool with a blocking parallel_for.
//
// The CONGEST engine executes all node protocols for a round, then delivers
// all messages; both phases are embarrassingly parallel across nodes.  The
// pool keeps workers alive across rounds to avoid per-round thread spawns.
//
// parallel_for is a template over the callable: the loop body is invoked
// through a plain function pointer + context pointer, so per-index dispatch
// never goes through std::function (no type-erased allocation, and the call
// inlines into the chunk loop when the callable is visible).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dapsp::util {

class ThreadPool {
 public:
  /// Signature the chunk loops dispatch through: fn(ctx, index).
  using RawFn = void (*)(void*, std::size_t);

  /// Creates `threads` workers; 0 means one per CPU the caller may run on
  /// (its affinity mask; minimum 1).  With a single worker parallel_for
  /// degrades to an inline loop, which keeps single-core hosts overhead-free.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n), blocking until all complete.  Work is
  /// claimed in contiguous chunks via an atomic cursor, so imbalance across
  /// nodes (e.g. hub vertices with long lists) is absorbed.
  ///
  /// Safe to call from any number of threads: the workers serve one batch at
  /// a time, and a caller that finds them busy executes its batch inline on
  /// its own thread instead of blocking (concurrent submitters are already
  /// parallel with each other).
  ///
  /// If fn throws, on any thread, no further chunks are handed out; once
  /// every worker has left the batch the first exception is rethrown on the
  /// caller, and the pool stays usable.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    parallel_for_raw(n, const_cast<void*>(static_cast<const void*>(&fn)),
                     [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); });
  }

  /// Type-erased core of parallel_for (also usable directly when the caller
  /// already has a C-style callback).
  void parallel_for_raw(std::size_t n, void* ctx, RawFn fn);

  /// Pins the worker threads round-robin across the caller's allowed CPUs
  /// (Linux-only; a best-effort no-op elsewhere and on repeat calls).  The
  /// calling thread is left unpinned: it participates in every batch but may
  /// be the application's main thread.  Pure scheduling hint -- results are
  /// identical with pinning on or off.
  void pin_threads();

  /// Shared process-wide pool (constructed on first use).
  static ThreadPool& global();

 private:
  struct Batch;
  void worker_loop();
  /// Claims and runs chunks of `batch` until none are left; records the
  /// first exception in the batch instead of letting it escape.
  void run_chunks(Batch& batch) noexcept;

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // held by the batch currently owning the workers
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;        // current batch, guarded by mutex_
  std::uint64_t generation_ = 0;  // bumped per batch so workers never re-run one
  bool stop_ = false;
  bool pinned_ = false;  // pin_threads() already applied
};

/// The pool of a run with a thread budget, the one rule for every loop a
/// run spreads over threads (the CONGEST engine's phases, the reference
/// closure's rows): 0 borrows ThreadPool::global(); k > 0 constructs a pool
/// of k threads into `own`, and with 1 every batch runs inline.  With
/// `pin`, the returned pool's workers are pinned (pin_threads).
ThreadPool& run_pool(std::size_t threads, bool pin,
                     std::unique_ptr<ThreadPool>& own);

}  // namespace dapsp::util
