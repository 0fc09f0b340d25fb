// Thread-safe query front-end over hot-swappable oracle snapshots.
//
// The service answers point queries (dist, next-hop, full path) and the
// analytics families (query/analytics.hpp) for untrusted callers: ids are
// validated, unsupported queries are reported as errors instead of UB, and
// every query is counted in service/stats.hpp.
// Queries execute against a `DistanceOracle` snapshot (service/oracle.hpp)
// behind a shared_ptr slot: `swap_snapshot` publishes a replacement under
// live traffic, and each query pins the snapshot it started on by copying
// the shared_ptr (a mutex held only for the pointer copy -- never for the
// duration of a query, and never for a rebuild).  The old snapshot is
// retired when the last in-flight query drops its reference.  Batched
// queries fan out over a private util::ThreadPool and answer from a single
// snapshot, so results[i] always answers queries[i] bit-identically
// regardless of thread count and a batch never mixes epochs.
//
// Reconstructed paths and analytics answers go through sharded LRU caches
// whose entries are stamped with the snapshot epoch: after a swap a stale
// cached answer can never be served (point lookups never touch a cache -- a
// matrix read is cheaper than any cache).  The service only executes: the
// text, JSONL and binary protocols that serve it over streams live in
// serve/session.hpp and serve/wire.hpp.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "query/types.hpp"
#include "service/oracle.hpp"
#include "service/stats.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::query {
class Analytics;
}  // namespace dapsp::query

namespace dapsp::service {

struct Query {
  QueryType type = QueryType::kDist;
  NodeId u = 0;
  NodeId v = 0;
  // Analytics parameters (ignored by the point-lookup types).
  std::uint32_t k = 1;        ///< kKPaths: number of paths requested
  std::uint32_t samples = 0;  ///< kBetweenness: source sample (0 = all)
  query::RouteConstraints constraints{};  ///< kRoute

  friend bool operator==(const Query&, const Query&) = default;
};

struct QueryResult {
  QueryType type = QueryType::kDist;
  NodeId u = 0;
  NodeId v = 0;
  bool ok = false;            ///< false = invalid ids / unsupported query
  std::string error;          ///< set when !ok
  Weight dist = graph::kInfDist;  ///< kInfDist when unreachable
  NodeId next_hop = graph::kNoNode;
  std::vector<NodeId> path;   ///< filled for kPath when reachable
  // Analytics payloads.
  bool feasible = true;       ///< kRoute: false when no route satisfies
  /// kKPaths: the canonical path first, then the later routes in
  /// route_less order; weights never decrease.
  std::vector<query::Route> routes;
  query::GraphReport report;             ///< kReport
  std::vector<double> centrality;        ///< kBetweenness

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// Analytics limits, enforced when a query executes, with stable errors:
/// k must be in [1, kMaxK], each avoid set holds at most kMaxAvoid entries,
/// and a hop budget that is neither vacuous (>= n-1) nor within kMaxHops is
/// refused (it would force an O(kMaxHops * n) layered search).
inline constexpr std::uint32_t kMaxK = 64;
inline constexpr std::uint32_t kMaxAvoid = 4096;
inline constexpr std::uint32_t kMaxHops = 4096;

struct QueryServiceConfig {
  /// Worker threads for query_batch; 0 = one per CPU in the process's
  /// affinity mask (util::ThreadPool(0)).
  std::size_t threads = 0;
  /// Total reconstructed paths kept across all cache shards; 0 disables the
  /// cache entirely (every path query reconstructs).
  std::size_t path_cache_capacity = 4096;
  /// Shards for the path cache (each shard has its own lock); clamped to at
  /// least 1.
  std::size_t cache_shards = 8;
};

class QueryService {
 public:
  /// Serves a finished oracle at epoch 0.
  explicit QueryService(DistanceOracle oracle, QueryServiceConfig cfg = {});
  /// Serves a shared oracle at epoch 0.  The oracle must not be mutated
  /// after this call.
  explicit QueryService(std::shared_ptr<DistanceOracle> snapshot,
                        QueryServiceConfig cfg = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The snapshot currently serving; pins it against retirement while held.
  std::shared_ptr<const DistanceOracle> snapshot() const {
    std::lock_guard lock(snap_mu_);
    return snap_;
  }

  /// Attaches the graph the snapshots were built from, enabling the four
  /// analytics query families (kpath/route/report/bc).  Without it they are
  /// answered with a structured "analytics unavailable" error.  Call before
  /// serving; the graph must outlive the service and match every snapshot's
  /// node count.
  void enable_analytics(std::shared_ptr<const graph::Graph> g);
  bool analytics_enabled() const noexcept { return analytics_ != nullptr; }

  /// Atomically publishes `next` as the serving snapshot and returns its
  /// freshly assigned epoch.  Never blocks readers: in-flight queries finish
  /// on the snapshot they started with, and the old snapshot is destroyed
  /// when its last reference drops.  `next` must be exclusively owned by the
  /// caller (its epoch is stamped here, pre-publication).  `rebuild_ns`, when
  /// nonzero, records the background build duration that produced `next` in
  /// the rebuild-latency histogram.
  std::uint64_t swap_snapshot(std::shared_ptr<DistanceOracle> next,
                              std::uint64_t rebuild_ns = 0);

  /// Executes one query.  Thread-safe; any number of callers may query
  /// concurrently, including concurrently with swap_snapshot.
  QueryResult query(const Query& q) const;

  /// Executes a batch on the service's thread pool.  results[i] always
  /// answers queries[i]; output is bit-identical regardless of thread count,
  /// and the whole batch answers from one snapshot (never a mix of epochs).
  std::vector<QueryResult> query_batch(std::span<const Query> queries) const;

  /// Snapshot of the counters accumulated since construction, plus the
  /// current snapshot's epoch and per-shard occupancy.
  ServiceStats stats() const;

 private:
  class ResultCache;
  struct Recorder;

  QueryResult execute(const DistanceOracle& snap, const Query& q) const;
  QueryResult timed_execute(const DistanceOracle& snap, const Query& q) const;

  mutable std::mutex snap_mu_;  ///< guards snap_ -- pointer copies only
  std::shared_ptr<const DistanceOracle> snap_;
  std::atomic<std::uint64_t> epoch_{0};  ///< last assigned epoch
  std::unique_ptr<ResultCache> cache_;   // paths; null when capacity == 0
  std::unique_ptr<Recorder> recorder_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<query::Analytics> analytics_;  // null until enabled
  std::unique_ptr<ResultCache> acache_;          // null until enabled
};

}  // namespace dapsp::service
