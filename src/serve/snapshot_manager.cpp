#include "serve/snapshot_manager.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

namespace dapsp::serve {

SnapshotManager::SnapshotManager(service::QueryService& svc, graph::Graph g,
                                 service::OracleBuildOptions opts,
                                 std::size_t shards)
    : svc_(svc),
      opts_(opts),
      shards_(shards),
      graph_(std::move(g)),
      worker_([this] { worker_loop(); }) {}

SnapshotManager::~SnapshotManager() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void SnapshotManager::set_graph(graph::Graph g) {
  std::lock_guard lock(mu_);
  graph_ = std::move(g);
}

void SnapshotManager::rebuild_async() {
  {
    std::lock_guard lock(mu_);
    pending_ = true;
    ++submitted_gen_;
  }
  cv_.notify_one();
}

void SnapshotManager::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return !pending_ && !building_; });
}

RebuildOutcome SnapshotManager::rebuild_now() {
  std::uint64_t my_gen = 0;
  {
    std::lock_guard lock(mu_);
    pending_ = true;
    my_gen = ++submitted_gen_;
  }
  cv_.notify_one();
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this, my_gen] { return done_gen_ >= my_gen; });
  return stats_.last;
}

SnapshotManager::Stats SnapshotManager::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void SnapshotManager::worker_loop() {
  for (;;) {
    std::uint64_t claimed_gen = 0;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return pending_ || stop_; });
      // Drain the pending slot even on shutdown so rebuild_now callers racing
      // the destructor still observe their request completing.
      if (stop_ && !pending_) return;
      pending_ = false;
      building_ = true;
      // Claim every request submitted so far: the build about to run copies
      // the graph *after* this point, so it observes all of their inputs.
      claimed_gen = submitted_gen_;
    }
    run_one_rebuild(claimed_gen);
    {
      std::lock_guard lock(mu_);
      building_ = false;
    }
    idle_cv_.notify_all();
    done_cv_.notify_all();
  }
}

void SnapshotManager::run_one_rebuild(std::uint64_t claimed_gen) {
  // Copy the input under the lock, build without it: set_graph and new
  // rebuild_async calls stay non-blocking for the whole build.
  graph::Graph g;
  {
    std::lock_guard lock(mu_);
    g = graph_;
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto snap = std::make_shared<service::DistanceOracle>(
        service::build_oracle(g, opts_, shards_));
    const auto build_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const std::uint64_t epoch = svc_.swap_snapshot(std::move(snap), build_ns);
    std::lock_guard lock(mu_);
    ++stats_.rebuilds_ok;
    done_gen_ = claimed_gen;
    stats_.last = {true, epoch, build_ns, {}};
  } catch (const std::exception& e) {
    // The serving snapshot is untouched: a failed build is an observability
    // event, not an outage.
    std::lock_guard lock(mu_);
    ++stats_.rebuilds_failed;
    done_gen_ = claimed_gen;
    stats_.last = {false, stats_.last.epoch, 0, e.what()};
  }
}

}  // namespace dapsp::serve
