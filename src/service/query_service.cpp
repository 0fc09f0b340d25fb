#include "service/query_service.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <iomanip>
#include <limits>
#include <list>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "query/analytics.hpp"

namespace dapsp::service {

using graph::kInfDist;
using graph::kNoNode;

// ---------------------------------------------------------------------------
// Sharded LRU cache for reconstructed paths.
//
// Every entry is stamped with the epoch of the snapshot that produced it; a
// lookup only hits when the stored epoch matches the querying snapshot's
// epoch, so a swap implicitly invalidates the whole cache without touching
// it (stale entries age out through normal LRU turnover or are overwritten
// in place on the next miss for their pair).

class QueryService::PathCache {
 public:
  PathCache(std::size_t capacity, std::size_t shards)
      : shards_(std::max<std::size_t>(1, shards)),
        per_shard_capacity_(std::max<std::size_t>(
            1, (capacity + shards_.size() - 1) / shards_.size())) {}

  bool lookup(std::uint64_t key, std::uint64_t epoch,
              std::vector<NodeId>* out) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end() || it->second->second.epoch != epoch) {
      // Absent, or computed against a snapshot that has since been swapped
      // out: a stale path must never be served.
      ++s.misses;
      return false;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
    *out = it->second->second.path;
    ++s.hits;
    return true;
  }

  void insert(std::uint64_t key, std::uint64_t epoch,
              const std::vector<NodeId>& path) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      // Raced with another miss, or overwriting a stale-epoch entry; refresh
      // recency and take the new snapshot's answer.
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      it->second->second = Entry{epoch, path};
      return;
    }
    s.lru.emplace_front(key, Entry{epoch, path});
    s.map.emplace(key, s.lru.begin());
    if (s.map.size() > per_shard_capacity_) {
      s.map.erase(s.lru.back().first);
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

  void reset() {
    for (Shard& s : shards_) {
      std::lock_guard lock(s.mu);
      s.hits = s.misses = s.evictions = 0;
    }
  }

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    std::vector<NodeId> path;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<std::pair<std::uint64_t, Entry>> lru;
    std::unordered_map<std::uint64_t,
                       decltype(lru)::iterator> map;
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
// Epoch-stamped LRU for analytics results.
//
// Analytics queries (kpath / route / report / bc) cost a search or a full
// matrix scan, so identical requests are worth replaying from memory.  The
// key is a hash of the *entire* query (type, endpoints, k, samples,
// constraints) and the stored query is compared on hit, so a hash collision
// can never serve the wrong answer.  Entries carry the snapshot epoch like
// PathCache entries: a swap invalidates everything implicitly.

class QueryService::AnalyticsCache {
 public:
  explicit AnalyticsCache(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  static std::uint64_t key_of(const Query& q) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the full query
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

  bool lookup(const Query& q, std::uint64_t epoch, QueryResult* out) {
    const std::uint64_t key = key_of(q);
    std::lock_guard lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end() || it->second->epoch != epoch ||
        !(it->second->query == q)) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->result;
    ++hits_;
    return true;
  }

  void insert(const Query& q, std::uint64_t epoch, const QueryResult& r) {
    const std::uint64_t key = key_of(q);
    std::lock_guard lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      *it->second = Entry{key, epoch, q, r};
      return;
    }
    lru_.push_front(Entry{key, epoch, q, r});
    map_.emplace(key, lru_.begin());
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  void account(ServiceStats* st) const {
    std::lock_guard lock(mu_);
    st->cache_hits += hits_;
    st->cache_misses += misses_;
    st->cache_evictions += evictions_;
  }

  void reset() {
    std::lock_guard lock(mu_);
    hits_ = misses_ = evictions_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
    Query query;
    QueryResult result;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
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

  void reset() {
    for (PerType& t : types) {
      for (auto& b : t.buckets) b = 0;
      t.count = 0;
      t.total_ns = 0;
      t.min_ns = std::numeric_limits<std::uint64_t>::max();
      t.max_ns = 0;
      t.errors = 0;
      t.error_ns = 0;
    }
    batches = 0;
    std::lock_guard lock(swap_mu);
    swaps = 0;
    swap_ns = obs::Histogram{};
    rebuild_ns = obs::Histogram{};
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
    : cfg_(cfg),
      snap_(std::move(snapshot)),
      recorder_(std::make_unique<Recorder>()),
      pool_(std::make_unique<util::ThreadPool>(cfg.threads)) {
  if (cfg_.path_cache_capacity > 0) {
    cache_ = std::make_unique<PathCache>(cfg_.path_cache_capacity,
                                         cfg_.cache_shards);
  }
}

QueryService::~QueryService() = default;

void QueryService::enable_analytics(std::shared_ptr<const graph::Graph> g) {
  analytics_ = std::make_unique<query::Analytics>(std::move(g));
  if (cfg_.analytics_cache_capacity > 0) {
    acache_ = std::make_unique<AnalyticsCache>(cfg_.analytics_cache_capacity);
  }
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
  if (static_cast<std::size_t>(q.type) >= kPointQueryTypeCount) {
    return execute_analytics(snap, q);
  }
  const NodeId n = snap.node_count();
  if (q.u >= n || q.v >= n) {
    r.error = "node id out of range (n=" + std::to_string(n) + ")";
    return r;
  }
  switch (q.type) {
    case QueryType::kDist:
      r.ok = true;
      r.dist = snap.dist(q.u, q.v);
      break;
    case QueryType::kNextHop:
      if (!snap.has_paths()) {
        r.error = "oracle is distance-only (no next-hop table)";
        return r;
      }
      r.ok = true;
      r.dist = snap.dist(q.u, q.v);
      r.next_hop = snap.next_hop(q.u, q.v);
      break;
    case QueryType::kPath: {
      if (!snap.has_paths()) {
        r.error = "oracle is distance-only (no next-hop table)";
        return r;
      }
      r.ok = true;
      r.dist = snap.dist(q.u, q.v);
      if (r.dist == kInfDist) break;  // unreachable: valid, empty path
      const std::uint64_t key =
          static_cast<std::uint64_t>(q.u) * n + q.v;
      if (cache_ && cache_->lookup(key, snap.epoch(), &r.path)) break;
      auto p = snap.path(q.u, q.v);
      // dist is finite and the snapshot has a next-hop table, so
      // reconstruction can only fail on a corrupt table.
      if (!p) {
        r.ok = false;
        r.error = "path reconstruction failed (corrupt next-hop table)";
        return r;
      }
      r.path = std::move(*p);
      if (cache_) cache_->insert(key, snap.epoch(), r.path);
      break;
    }
  }
  return r;
}

QueryResult QueryService::execute_analytics(const DistanceOracle& snap,
                                            const Query& q) const {
  QueryResult r;
  r.type = q.type;
  r.u = q.u;
  r.v = q.v;
  if (!analytics_) {
    r.error = "analytics unavailable (no graph attached)";
    return r;
  }
  const NodeId n = snap.node_count();
  if (analytics_->graph().node_count() != n) {
    r.error = "analytics graph does not match snapshot (graph n=" +
              std::to_string(analytics_->graph().node_count()) +
              ", snapshot n=" + std::to_string(n) + ")";
    return r;
  }
  const bool pair_query =
      q.type == QueryType::kKPaths || q.type == QueryType::kRoute;
  if (pair_query && (q.u >= n || q.v >= n)) {
    r.error = "node id out of range (n=" + std::to_string(n) + ")";
    return r;
  }
  // Per-family limits and capability gates, before any work happens.
  switch (q.type) {
    case QueryType::kKPaths:
      if (q.k < 1 || q.k > cfg_.max_k) {
        r.error = "k must be in [1, " + std::to_string(cfg_.max_k) + "]";
        return r;
      }
      if (!snap.has_paths()) {
        r.error = "oracle is distance-only (no next-hop table)";
        return r;
      }
      break;
    case QueryType::kRoute: {
      const auto& c = q.constraints;
      if (c.avoid_nodes.size() > cfg_.max_avoid ||
          c.avoid_edges.size() > cfg_.max_avoid) {
        r.error =
            "avoid set exceeds max_avoid=" + std::to_string(cfg_.max_avoid);
        return r;
      }
      // A budget of >= n-1 hops is vacuous (any loopless path fits), so it is
      // always accepted; between max_hops and n-1 it would force an
      // O(max_hops * n) layered search and is refused.
      if (c.max_hops != 0 && c.max_hops > cfg_.max_hops &&
          c.max_hops < n - 1) {
        r.error = "max_hops " + std::to_string(c.max_hops) +
                  " exceeds limit " + std::to_string(cfg_.max_hops) +
                  " (use 0 for an unlimited hop budget)";
        return r;
      }
      if (!snap.has_paths()) {
        r.error = "oracle is distance-only (no next-hop table)";
        return r;
      }
      break;
    }
    case QueryType::kReport:
    case QueryType::kBetweenness:
      if (!snap.exact()) {
        r.error = "report/bc require exact distances (snapshot is approximate)";
        return r;
      }
      break;
    default:
      r.error = "not an analytics query type";
      return r;
  }
  if (acache_ && acache_->lookup(q, snap.epoch(), &r)) return r;
  switch (q.type) {
    case QueryType::kKPaths:
      r.routes = analytics_->k_shortest(snap, q.u, q.v, q.k);
      r.dist = r.routes.empty() ? kInfDist : r.routes.front().weight;
      r.ok = true;
      break;
    case QueryType::kRoute: {
      auto route =
          analytics_->constrained_route(snap, q.u, q.v, q.constraints);
      r.ok = true;
      if (route) {
        r.feasible = true;
        r.dist = route->weight;
        r.path = route->nodes;
        r.routes.push_back(std::move(*route));
      } else {
        r.feasible = false;
        r.dist = kInfDist;
      }
      break;
    }
    case QueryType::kReport:
      r.report = analytics_->report(snap, *pool_);
      r.ok = true;
      break;
    case QueryType::kBetweenness:
      r.centrality = analytics_->betweenness(snap, q.samples, *pool_);
      r.ok = true;
      break;
    default:
      break;
  }
  if (r.ok && acache_) acache_->insert(q, snap.epoch(), r);
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

void QueryService::reset_stats() {
  recorder_->reset();
  if (cache_) cache_->reset();
  if (acache_) acache_->reset();
}

// ---------------------------------------------------------------------------
// Text protocol.

namespace {

std::optional<NodeId> parse_node(std::string_view tok) {
  std::uint32_t out = 0;
  const auto* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

/// Structured serve-loop error: in JSON mode carries a machine-readable
/// `code` alongside the human message (the message may echo user input, so
/// it goes through the escaping writer).
void write_serve_error(std::ostream& out, bool json, std::string_view code,
                       const std::string& msg) {
  if (json) {
    out << "{\"ok\":false,\"code\":\"" << code << "\",\"error\":";
    obs::write_json_string(out, msg);
    out << "}\n";
  } else {
    out << "error: " << msg << "\n";
  }
}

}  // namespace

namespace {

/// Parses "a,b,c" into ids; empty string yields an empty list.
bool parse_node_list(std::string_view s, std::vector<NodeId>* out) {
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view tok = s.substr(0, comma);
    const auto x = parse_node(tok);
    if (!x) return false;
    out->push_back(*x);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return true;
}

/// Parses "a-b,c-d" into endpoint pairs.
bool parse_edge_list(std::string_view s,
                     std::vector<std::pair<NodeId, NodeId>>* out) {
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view tok = s.substr(0, comma);
    const std::size_t dash = tok.find('-');
    if (dash == std::string_view::npos) return false;
    const auto a = parse_node(tok.substr(0, dash));
    const auto b = parse_node(tok.substr(dash + 1));
    if (!a || !b) return false;
    out->emplace_back(*a, *b);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

std::optional<Query> QueryService::parse_query(std::string_view line,
                                               std::string* error) {
  const auto toks = split_ws(line);
  const auto fail = [error](std::string msg) -> std::optional<Query> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  if (toks.empty()) {
    return fail(
        "expected '<dist|next|path> U V', 'kpath U V K', 'route U V "
        "[hops=H] [avoid=...] [avoidedge=...]', 'report' or 'bc [SAMPLES]'");
  }
  Query q;
  // Zero-argument / optional-argument forms first.
  if (toks[0] == "report") {
    if (toks.size() != 1) return fail("expected 'report' with no arguments");
    q.type = QueryType::kReport;
    return q;
  }
  if (toks[0] == "bc") {
    if (toks.size() > 2) return fail("expected 'bc [SAMPLES]'");
    q.type = QueryType::kBetweenness;
    if (toks.size() == 2) {
      const auto s = parse_node(toks[1]);
      if (!s) return fail("bc sample count must be a non-negative integer");
      q.samples = *s;
    }
    return q;
  }
  if (toks[0] == "dist") {
    q.type = QueryType::kDist;
  } else if (toks[0] == "next") {
    q.type = QueryType::kNextHop;
  } else if (toks[0] == "path") {
    q.type = QueryType::kPath;
  } else if (toks[0] == "kpath") {
    q.type = QueryType::kKPaths;
  } else if (toks[0] == "route") {
    q.type = QueryType::kRoute;
  } else {
    return fail("unknown query type '" + std::string(toks[0]) +
                "' (dist|next|path|kpath|route|report|bc)");
  }
  if (toks.size() < 3) {
    return fail("expected '" + std::string(toks[0]) + " U V ...'");
  }
  const auto u = parse_node(toks[1]);
  const auto v = parse_node(toks[2]);
  if (!u || !v) return fail("node ids must be non-negative integers");
  q.u = *u;
  q.v = *v;
  if (q.type == QueryType::kKPaths) {
    if (toks.size() != 4) return fail("expected 'kpath U V K'");
    const auto k = parse_node(toks[3]);
    if (!k || *k == 0) return fail("k must be a positive integer");
    q.k = *k;
    return q;
  }
  if (q.type == QueryType::kRoute) {
    for (std::size_t i = 3; i < toks.size(); ++i) {
      const std::string_view t = toks[i];
      if (t.rfind("hops=", 0) == 0) {
        const auto h = parse_node(t.substr(5));
        if (!h) return fail("hops= must be a non-negative integer");
        q.constraints.max_hops = *h;
      } else if (t.rfind("avoidedge=", 0) == 0) {
        if (!parse_edge_list(t.substr(10), &q.constraints.avoid_edges)) {
          return fail("avoidedge= must be a-b pairs separated by commas");
        }
      } else if (t.rfind("avoid=", 0) == 0) {
        if (!parse_node_list(t.substr(6), &q.constraints.avoid_nodes)) {
          return fail("avoid= must be node ids separated by commas");
        }
      } else {
        return fail("unknown route option '" + std::string(t) +
                    "' (hops=|avoid=|avoidedge=)");
      }
    }
    return q;
  }
  if (toks.size() != 3) {
    return fail("expected '" + std::string(toks[0]) + " U V'");
  }
  return q;
}

namespace {

void write_route_text(const query::Route& rt, std::ostream& out) {
  for (std::size_t i = 0; i < rt.nodes.size(); ++i) {
    out << (i ? " " : "") << rt.nodes[i];
  }
  out << " (dist " << rt.weight << ", " << rt.hops() << " hops)";
}

}  // namespace

void QueryService::write_result_text(const QueryResult& r, std::ostream& out) {
  if (!r.ok) {
    out << "error: " << r.error << "\n";
    return;
  }
  // Whole-graph families do not carry a (u, v) pair or a dist.
  if (r.type == QueryType::kReport) {
    const auto& g = r.report;
    out << "report = radius " << g.radius << ", diameter " << g.diameter
        << ", reachable_pairs " << g.reachable_pairs << ", sources "
        << g.per_source.size() << "\n";
    return;
  }
  if (r.type == QueryType::kBetweenness) {
    // Top scores only; the full vector is available via the JSON protocol.
    std::vector<std::size_t> order(r.centrality.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (r.centrality[a] != r.centrality[b]) {
        return r.centrality[a] > r.centrality[b];
      }
      return a < b;
    });
    out << "bc = " << r.centrality.size() << " nodes, top:";
    const std::size_t top = std::min<std::size_t>(8, order.size());
    for (std::size_t i = 0; i < top; ++i) {
      out << " " << order[i] << "=" << std::setprecision(6)
          << r.centrality[order[i]];
    }
    out << "\n";
    return;
  }
  out << query_type_name(r.type) << " " << r.u << " " << r.v << " = ";
  if (r.type == QueryType::kKPaths) {
    if (r.routes.empty()) {
      out << "unreachable\n";
      return;
    }
    out << r.routes.size() << " paths\n";
    for (std::size_t i = 0; i < r.routes.size(); ++i) {
      out << "  [" << (i + 1) << "] ";
      write_route_text(r.routes[i], out);
      out << "\n";
    }
    return;
  }
  if (r.type == QueryType::kRoute) {
    if (!r.feasible) {
      out << "infeasible\n";
      return;
    }
    write_route_text(r.routes.front(), out);
    out << "\n";
    return;
  }
  if (r.dist == kInfDist) {
    out << "unreachable\n";
    return;
  }
  switch (r.type) {
    case QueryType::kDist:
      out << r.dist;
      break;
    case QueryType::kNextHop:
      out << (r.next_hop == kNoNode ? std::string("-")
                                    : std::to_string(r.next_hop))
          << " (dist " << r.dist << ")";
      break;
    case QueryType::kPath:
      for (std::size_t i = 0; i < r.path.size(); ++i) {
        out << (i ? " " : "") << r.path[i];
      }
      out << " (dist " << r.dist << ", " << (r.path.size() - 1) << " hops)";
      break;
    default:
      break;
  }
  out << "\n";
}

void QueryService::write_result_json(const QueryResult& r, std::ostream& out) {
  out << "{\"type\":\"" << query_type_name(r.type) << "\",\"u\":" << r.u
      << ",\"v\":" << r.v << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    // r.error embeds caller-controlled text (e.g. the unknown query token);
    // escape it or a quote in the input corrupts the JSONL stream.
    out << ",\"error\":";
    obs::write_json_string(out, r.error);
    out << "}\n";
    return;
  }
  if (r.type == QueryType::kReport) {
    const auto& g = r.report;
    out << ",\"radius\":" << g.radius << ",\"diameter\":" << g.diameter
        << ",\"reachable_pairs\":" << g.reachable_pairs << ",\"sources\":[";
    for (std::size_t i = 0; i < g.per_source.size(); ++i) {
      const auto& s = g.per_source[i];
      out << (i ? "," : "") << "{\"ecc\":" << s.eccentricity
          << ",\"farness\":" << s.farness << ",\"reached\":" << s.reached
          << "}";
    }
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kBetweenness) {
    out << ",\"centrality\":[" << std::setprecision(17);
    for (std::size_t i = 0; i < r.centrality.size(); ++i) {
      out << (i ? "," : "") << r.centrality[i];
    }
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kKPaths) {
    out << ",\"routes\":[";
    for (std::size_t i = 0; i < r.routes.size(); ++i) {
      const auto& rt = r.routes[i];
      out << (i ? "," : "") << "{\"dist\":" << rt.weight << ",\"path\":[";
      for (std::size_t j = 0; j < rt.nodes.size(); ++j) {
        out << (j ? "," : "") << rt.nodes[j];
      }
      out << "]}";
    }
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kRoute) {
    out << ",\"feasible\":" << (r.feasible ? "true" : "false");
    if (r.feasible) {
      out << ",\"dist\":" << r.dist << ",\"path\":[";
      for (std::size_t i = 0; i < r.path.size(); ++i) {
        out << (i ? "," : "") << r.path[i];
      }
      out << "]";
    }
    out << "}\n";
    return;
  }
  out << ",\"dist\":";
  if (r.dist == kInfDist) {
    out << "null";
  } else {
    out << r.dist;
  }
  if (r.type == QueryType::kNextHop && r.next_hop != kNoNode) {
    out << ",\"next\":" << r.next_hop;
  }
  if (r.type == QueryType::kPath && r.dist != kInfDist) {
    out << ",\"path\":[";
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      out << (i ? "," : "") << r.path[i];
    }
    out << "]";
  }
  out << "}\n";
}

void QueryService::serve_batch_directive(std::istream& in, std::ostream& out,
                                         const ServeOptions& opts,
                                         std::uint64_t count,
                                         int* malformed) const {
  if (count > cfg_.max_batch) {
    // Reject the batch whole: consume and discard its body so an oversized
    // request never degrades into best-effort line-by-line answers, then
    // report one structured error for it.
    std::string line;
    for (std::uint64_t seen = 0; seen < count && std::getline(in, line);) {
      const auto toks = split_ws(line);
      if (toks.empty() || toks[0].front() == '#') continue;
      ++seen;
    }
    ++*malformed;
    write_serve_error(out, opts.json, "batch_too_large",
                      "batch of " + std::to_string(count) +
                          " exceeds max batch size " +
                          std::to_string(cfg_.max_batch));
    return;
  }
  // Collect the body (blank lines and comments are skipped, as outside a
  // batch).  EOF before `count` query lines rejects the batch whole.
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  std::string line;
  while (lines.size() < count && std::getline(in, line)) {
    const auto toks = split_ws(line);
    if (toks.empty() || toks[0].front() == '#') continue;
    lines.push_back(line);
  }
  if (lines.size() < count) {
    ++*malformed;
    write_serve_error(out, opts.json, "batch_truncated",
                      "batch of " + std::to_string(count) +
                          " truncated by end of input after " +
                          std::to_string(lines.size()) + " lines");
    return;
  }
  // Parse every line; parse failures keep their position so responses line
  // up 1:1 with requests.
  std::vector<std::optional<Query>> parsed(lines.size());
  std::vector<std::string> parse_errors(lines.size());
  std::vector<Query> good;
  good.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    parsed[i] = parse_query(lines[i], &parse_errors[i]);
    if (parsed[i]) good.push_back(*parsed[i]);
  }
  const std::vector<QueryResult> results = query_batch(good);
  std::size_t next_result = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!parsed[i]) {
      ++*malformed;
      write_serve_error(out, opts.json, "parse_error", parse_errors[i]);
      continue;
    }
    const QueryResult& r = results[next_result++];
    if (opts.json) {
      write_result_json(r, out);
    } else {
      write_result_text(r, out);
    }
  }
}

int QueryService::serve_stream(std::istream& in, std::ostream& out,
                               const ServeOptions& opts) const {
  const bool json = opts.json;
  int malformed = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto toks = split_ws(line);
    if (toks.empty() || toks[0].front() == '#') continue;
    if (toks[0] == "quit" || toks[0] == "exit") break;
    if (toks[0] == "stats") {
      const ServiceStats st = stats();
      if (json) {
        obs::JsonWriter w(out);
        w.begin_object().key("stats");
        st.write_json(w);
        w.end_object();
        out << "\n";
      } else {
        out << st.summary() << "\n";
      }
      continue;
    }
    if (toks[0] == "batch") {
      std::uint64_t count = 0;
      bool count_ok = toks.size() == 2;
      if (count_ok) {
        const auto* end = toks[1].data() + toks[1].size();
        const auto [ptr, ec] = std::from_chars(toks[1].data(), end, count);
        count_ok = ec == std::errc{} && ptr == end;
      }
      if (!count_ok) {
        ++malformed;
        write_serve_error(out, json, "parse_error",
                          "batch needs a count: 'batch N'");
        continue;
      }
      serve_batch_directive(in, out, opts, count, &malformed);
      continue;
    }
    if (toks[0] == "rebuild") {
      if (!opts.on_rebuild) {
        ++malformed;
        write_serve_error(out, json, "rebuild_unavailable",
                          "no rebuild hook installed for this session");
        continue;
      }
      const RebuildOutcome rc = opts.on_rebuild();
      if (json) {
        out << "{\"rebuild\":{\"ok\":" << (rc.ok ? "true" : "false");
        if (rc.ok) {
          out << ",\"epoch\":" << rc.epoch << ",\"build_ns\":" << rc.build_ns;
        } else {
          out << ",\"error\":";
          obs::write_json_string(out, rc.error);
        }
        out << "}}\n";
      } else if (rc.ok) {
        out << "rebuild: epoch=" << rc.epoch << " build_ns=" << rc.build_ns
            << "\n";
      } else {
        out << "error: rebuild failed: " << rc.error << "\n";
      }
      continue;
    }
    std::string error;
    const auto q = parse_query(line, &error);
    if (!q) {
      ++malformed;
      write_serve_error(out, json, "parse_error", error);
      continue;
    }
    const QueryResult r = query(*q);
    if (json) {
      write_result_json(r, out);
    } else {
      write_result_text(r, out);
    }
  }
  return malformed;
}

}  // namespace dapsp::service
