#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace dapsp::util {

struct ThreadPool::Batch {
  std::size_t n = 0;
  void* ctx = nullptr;
  RawFn fn = nullptr;
  std::atomic<std::size_t> cursor{0};
  std::size_t chunk = 1;
  std::size_t finished_workers = 0;  // guarded by pool mutex
  std::exception_ptr error;          // first throw, guarded by pool mutex
};

void ThreadPool::run_chunks(Batch& batch) noexcept {
  try {
    while (true) {
      const std::size_t start = batch.cursor.fetch_add(batch.chunk);
      if (start >= batch.n) break;
      const std::size_t end = std::min(batch.n, start + batch.chunk);
      for (std::size_t i = start; i < end; ++i) batch.fn(batch.ctx, i);
    }
  } catch (...) {
    // Hand out no more chunks; the caller rethrows once the batch drains.
    batch.cursor.store(batch.n);
    std::lock_guard lock(mutex_);
    if (!batch.error) batch.error = std::current_exception();
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : hc;
  }
  // The calling thread participates in every batch, so spawn one fewer.
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    ++generation_;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::pin_threads() {
  if (pinned_) return;
  pinned_ = true;
#ifdef __linux__
  const unsigned hc = std::thread::hardware_concurrency();
  const unsigned cpus = hc == 0 ? 1 : hc;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    // Leave CPU 0 to the (unpinned) caller when there is room.
    CPU_SET(static_cast<int>((i + 1) % cpus), &set);
    // Best effort: an affinity failure (e.g. restricted cpuset) is harmless.
    (void)pthread_setaffinity_np(workers_[i].native_handle(), sizeof(set),
                                 &set);
  }
#endif
}

void ThreadPool::parallel_for_raw(std::size_t n, void* ctx, RawFn fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  // Only one batch can own the workers at a time (they key off a single
  // `batch_` pointer).  A second concurrent submitter runs its batch inline
  // instead of queueing: concurrent callers -- e.g. many serving threads
  // issuing query batches on one pool -- already are the parallelism, and
  // blocking them behind each other would serialize exactly the workload
  // that most needs to overlap.
  std::unique_lock submit(submit_mutex_, std::try_to_lock);
  if (!submit.owns_lock()) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  Batch batch;
  batch.n = n;
  batch.ctx = ctx;
  batch.fn = fn;
  batch.chunk = std::max<std::size_t>(1, n / (thread_count() * 8));
  {
    std::lock_guard lock(mutex_);
    batch_ = &batch;
    ++generation_;  // each batch gets a fresh generation; workers key off it
  }
  work_cv_.notify_all();

  // The caller works too.  Workers hold &batch until they check out, so
  // even a failed batch is waited for before its frame unwinds.
  run_chunks(batch);
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return batch.finished_workers == workers_.size(); });
  batch_ = nullptr;
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      batch = batch_;
    }
    run_chunks(*batch);
    {
      std::lock_guard lock(mutex_);
      ++batch->finished_workers;
      if (batch->finished_workers == workers_.size()) done_cv_.notify_one();
    }
  }
}

}  // namespace dapsp::util
