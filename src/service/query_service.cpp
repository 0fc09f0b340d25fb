#include "service/query_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <list>
#include <mutex>
#include <unordered_map>

#include "query/analytics.hpp"

namespace dapsp::service {

using graph::kInfDist;

namespace {

/// Entries kept in the analytics result cache.
constexpr std::size_t kAnalyticsCacheCapacity = 256;

/// FNV-1a over the full query: the analytics cache's key.
std::uint64_t query_key(const Query& q) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(q.type));
  mix(static_cast<std::uint64_t>(q.u) << 32 | q.v);
  mix(static_cast<std::uint64_t>(q.k) << 32 | q.samples);
  mix(q.constraints.max_hops);
  for (const NodeId x : q.constraints.avoid_nodes) mix(x);
  for (const auto& [a, b] : q.constraints.avoid_edges) {
    mix(static_cast<std::uint64_t>(a) << 32 | b);
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sharded LRU of query results, one lock per shard.
//
// Every entry is stamped with the epoch of the snapshot that produced it and
// keeps the query it answers; a lookup only hits when both match.  So a swap
// implicitly invalidates the whole cache without touching it (stale entries
// age out through normal LRU turnover or are overwritten in place on the
// next miss for their key), and two queries that share a key can never be
// served each other's answer.  Reconstructed paths are keyed by u*n+v over
// QueryServiceConfig::cache_shards shards; analytics answers (kpath / route / report /
// bc cost a search or a full matrix scan) by a hash of the whole query, in
// one shard.

class QueryService::ResultCache {
 public:
  ResultCache(std::size_t capacity, std::size_t shards)
      : shards_(std::max<std::size_t>(1, shards)),
        per_shard_capacity_(std::max<std::size_t>(
            1, (capacity + shards_.size() - 1) / shards_.size())) {}

  bool lookup(std::uint64_t key, std::uint64_t epoch, const Query& q,
              QueryResult* out) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second->epoch != epoch ||
        !(it->second->query == q)) {
      ++s.misses;
      return false;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
    *out = it->second->result;
    ++s.hits;
    return true;
  }

  void insert(std::uint64_t key, std::uint64_t epoch, const Query& q,
              const QueryResult& r) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      // Raced with another miss, or overwriting a stale-epoch entry; refresh
      // recency and take the new snapshot's answer.
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      *it->second = Entry{key, epoch, q, r};
      return;
    }
    s.lru.push_front(Entry{key, epoch, q, r});
    s.map.emplace(key, s.lru.begin());
    if (s.map.size() > per_shard_capacity_) {
      s.map.erase(s.lru.back().key);
      s.lru.pop_back();
      ++s.evictions;
    }
  }

  void account(ServiceStats* st) const {
    for (const Shard& s : shards_) {
      std::lock_guard lock(s.mu);
      st->cache_hits += s.hits;
      st->cache_misses += s.misses;
      st->cache_evictions += s.evictions;
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
    Query query;
    QueryResult result;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  Shard& shard(std::uint64_t key) {
    // splitmix64 finalizer: adjacent (u,v) keys land in different shards.
    std::uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return shards_[(x ^ (x >> 31)) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_;
};

// ---------------------------------------------------------------------------
// Lock-free counters; materialized into ServiceStats on demand.
//
// Successful queries feed per-bucket atomic counters mirroring
// obs::Histogram's log-bucket layout, so a snapshot can rebuild a full
// histogram via Histogram::from_raw.  Failed queries only bump errors /
// error_ns: their wall-clock must not distort latency quantiles, and an
// all-error snapshot must render min=0, not a UINT64_MAX sentinel.  Swap
// and rebuild latencies are rare events recorded under a small mutex.

struct QueryService::Recorder {
  struct PerType {
    std::array<std::atomic<std::uint64_t>, obs::Histogram::kBuckets>
        buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> min_ns{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> error_ns{0};
  };
  std::array<PerType, kQueryTypeCount> types;
  std::atomic<std::uint64_t> batches{0};

  mutable std::mutex swap_mu;
  std::uint64_t swaps = 0;            // guarded by swap_mu
  obs::Histogram swap_ns;             // guarded by swap_mu
  obs::Histogram rebuild_ns;          // guarded by swap_mu

  void record(QueryType type, std::uint64_t ns, bool ok) {
    PerType& t = types[static_cast<std::size_t>(type)];
    if (!ok) {
      t.errors.fetch_add(1, std::memory_order_relaxed);
      t.error_ns.fetch_add(ns, std::memory_order_relaxed);
      return;
    }
    t.buckets[obs::Histogram::bucket_index(ns)].fetch_add(
        1, std::memory_order_relaxed);
    t.count.fetch_add(1, std::memory_order_relaxed);
    t.total_ns.fetch_add(ns, std::memory_order_relaxed);
    update_min(t.min_ns, ns);
    update_max(t.max_ns, ns);
  }

  void record_swap(std::uint64_t publish_ns, std::uint64_t build_ns) {
    std::lock_guard lock(swap_mu);
    ++swaps;
    swap_ns.record(publish_ns);
    if (build_ns > 0) rebuild_ns.record(build_ns);
  }

  QueryTypeStats snapshot(std::size_t i) const {
    const PerType& t = types[i];
    std::array<std::uint64_t, obs::Histogram::kBuckets> raw;
    for (std::size_t b = 0; b < raw.size(); ++b) {
      raw[b] = t.buckets[b].load(std::memory_order_relaxed);
    }
    QueryTypeStats out;
    out.latency = obs::Histogram::from_raw(
        raw, t.count.load(std::memory_order_relaxed),
        t.total_ns.load(std::memory_order_relaxed),
        t.min_ns.load(std::memory_order_relaxed),
        t.max_ns.load(std::memory_order_relaxed));
    out.errors = t.errors.load(std::memory_order_relaxed);
    out.error_ns = t.error_ns.load(std::memory_order_relaxed);
    return out;
  }

  static void update_min(std::atomic<std::uint64_t>& m, std::uint64_t v) {
    std::uint64_t cur = m.load(std::memory_order_relaxed);
    while (v < cur &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void update_max(std::atomic<std::uint64_t>& m, std::uint64_t v) {
    std::uint64_t cur = m.load(std::memory_order_relaxed);
    while (v > cur &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
};

// ---------------------------------------------------------------------------

QueryService::QueryService(DistanceOracle oracle, QueryServiceConfig cfg)
    : QueryService(std::make_shared<DistanceOracle>(std::move(oracle)), cfg) {}

QueryService::QueryService(std::shared_ptr<DistanceOracle> snapshot,
                           QueryServiceConfig cfg)
    : snap_(std::move(snapshot)),
      recorder_(std::make_unique<Recorder>()),
      pool_(std::make_unique<util::ThreadPool>(cfg.threads)) {
  if (cfg.path_cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(cfg.path_cache_capacity,
                                           cfg.cache_shards);
  }
}

QueryService::~QueryService() = default;

void QueryService::enable_analytics(std::shared_ptr<const graph::Graph> g) {
  analytics_ = std::make_unique<query::Analytics>(std::move(g));
  acache_ = std::make_unique<ResultCache>(kAnalyticsCacheCapacity, 1);
}

std::uint64_t QueryService::swap_snapshot(
    std::shared_ptr<DistanceOracle> next, std::uint64_t rebuild_ns) {
  const auto t0 = std::chrono::steady_clock::now();
  // Stamp the epoch while we still hold the only reference, then publish.
  // Readers that loaded the old snapshot keep serving from it until their
  // queries finish; its destructor runs when the last reference drops.
  const std::uint64_t e =
      epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  next->set_epoch(e);
  std::shared_ptr<const DistanceOracle> retired{std::move(next)};
  {
    std::lock_guard lock(snap_mu_);
    snap_.swap(retired);
  }
  // `retired` now holds the previous snapshot; if no in-flight query pins
  // it, its destructor runs here -- outside the lock, so a slow teardown
  // never stalls readers.
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  recorder_->record_swap(ns, rebuild_ns);
  return e;
}

QueryResult QueryService::execute(const DistanceOracle& snap,
                                  const Query& q) const {
  QueryResult r;
  r.type = q.type;
  r.u = q.u;
  r.v = q.v;
  const auto fail = [&r](std::string msg) {
    r.ok = false;
    r.error = std::move(msg);
    return r;
  };
  const NodeId n = snap.node_count();
  const bool analytics =
      static_cast<std::size_t>(q.type) >= kPointQueryTypeCount;
  const bool whole_graph =
      q.type == QueryType::kReport || q.type == QueryType::kBetweenness;
  if (analytics && !analytics_) {
    return fail("analytics unavailable (no graph attached)");
  }
  if (analytics && analytics_->graph().node_count() != n) {
    return fail("analytics graph does not match snapshot (graph n=" +
                std::to_string(analytics_->graph().node_count()) +
                ", snapshot n=" + std::to_string(n) + ")");
  }
  if (!whole_graph && (q.u >= n || q.v >= n)) {
    return fail("node id out of range (n=" + std::to_string(n) + ")");
  }
  // Per-family limits and capability gates, before any work happens.
  const query::RouteConstraints& c = q.constraints;
  if (q.type == QueryType::kKPaths && (q.k < 1 || q.k > kMaxK)) {
    return fail("k must be in [1, " + std::to_string(kMaxK) + "]");
  }
  if (q.type == QueryType::kRoute &&
      (c.avoid_nodes.size() > kMaxAvoid || c.avoid_edges.size() > kMaxAvoid)) {
    return fail("avoid set exceeds max_avoid=" + std::to_string(kMaxAvoid));
  }
  // A budget of >= n-1 hops is vacuous (any loopless path fits), so it is
  // always accepted; between kMaxHops and n-1 it would force an
  // O(kMaxHops * n) layered search and is refused.
  if (q.type == QueryType::kRoute && c.max_hops != 0 &&
      c.max_hops > kMaxHops && c.max_hops < n - 1) {
    return fail("max_hops " + std::to_string(c.max_hops) + " exceeds limit " +
                std::to_string(kMaxHops) +
                " (use 0 for an unlimited hop budget)");
  }
  if (q.type != QueryType::kDist && !whole_graph && !snap.has_paths()) {
    return fail("oracle is distance-only (no next-hop table)");
  }
  if (whole_graph && !snap.exact()) {
    return fail("report/bc require exact distances (snapshot is approximate)");
  }
  r.ok = true;
  if (!analytics) {
    r.dist = snap.dist(q.u, q.v);
    if (q.type == QueryType::kNextHop) r.next_hop = snap.next_hop(q.u, q.v);
    // An unreachable pair is a valid answer with an empty path.
    if (q.type != QueryType::kPath || r.dist == kInfDist) return r;
    const std::uint64_t key = static_cast<std::uint64_t>(q.u) * n + q.v;
    if (cache_ && cache_->lookup(key, snap.epoch(), q, &r)) return r;
    auto p = snap.path(q.u, q.v);
    // dist is finite and the snapshot has a next-hop table, so
    // reconstruction can only fail on a corrupt table.
    if (!p) return fail("path reconstruction failed (corrupt next-hop table)");
    r.path = std::move(*p);
    if (cache_) cache_->insert(key, snap.epoch(), q, r);
    return r;
  }
  const std::uint64_t key = query_key(q);
  if (acache_->lookup(key, snap.epoch(), q, &r)) return r;
  switch (q.type) {
    case QueryType::kKPaths:
      r.routes = analytics_->k_shortest(snap, q.u, q.v, q.k);
      r.dist = r.routes.empty() ? kInfDist : r.routes.front().weight;
      break;
    case QueryType::kRoute:
      if (auto route = analytics_->constrained_route(snap, q.u, q.v, c)) {
        r.dist = route->weight;
        r.path = route->nodes;
        r.routes.push_back(std::move(*route));
      } else {
        r.feasible = false;
      }
      break;
    case QueryType::kReport:
      r.report = analytics_->report(snap, *pool_);
      break;
    case QueryType::kBetweenness:
      r.centrality = analytics_->betweenness(snap, q.samples, *pool_);
      break;
    default:  // the point lookups returned above
      break;
  }
  acache_->insert(key, snap.epoch(), q, r);
  return r;
}

QueryResult QueryService::timed_execute(const DistanceOracle& snap,
                                        const Query& q) const {
  const auto t0 = std::chrono::steady_clock::now();
  QueryResult r = execute(snap, q);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  recorder_->record(q.type, ns, r.ok);
  return r;
}

QueryResult QueryService::query(const Query& q) const {
  // Pin the serving snapshot for the duration of this query: a concurrent
  // swap retires the old snapshot only after this reference drops.
  const std::shared_ptr<const DistanceOracle> snap = snapshot();
  return timed_execute(*snap, q);
}

std::vector<QueryResult> QueryService::query_batch(
    std::span<const Query> queries) const {
  // One snapshot for the whole batch: a swap mid-batch never yields a
  // response mixing epochs.
  const std::shared_ptr<const DistanceOracle> snap = snapshot();
  std::vector<QueryResult> results(queries.size());
  pool_->parallel_for(queries.size(), [&](std::size_t i) {
    results[i] = timed_execute(*snap, queries[i]);
  });
  recorder_->batches.fetch_add(1, std::memory_order_relaxed);
  return results;
}

ServiceStats QueryService::stats() const {
  ServiceStats st;
  for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
    st.per_type[i] = recorder_->snapshot(i);
  }
  st.batches = recorder_->batches.load();
  if (cache_) cache_->account(&st);
  if (acache_) acache_->account(&st);
  {
    std::lock_guard lock(recorder_->swap_mu);
    st.swaps = recorder_->swaps;
    st.swap_ns = recorder_->swap_ns;
    st.rebuild_ns = recorder_->rebuild_ns;
  }
  const std::shared_ptr<const DistanceOracle> snap = snapshot();
  st.snapshot_epoch = snap->epoch();
  st.shards = snap->shard_layout();
  if (const obs::CritPathSummary* cp = snap->build_critpath()) {
    st.last_build_critpath = *cp;
  }
  return st;
}

}  // namespace dapsp::service
