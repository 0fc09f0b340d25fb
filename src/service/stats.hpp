// Query-side latency/throughput accounting for the distance-oracle service.
//
// Same philosophy as congest/metrics.hpp: the quantities the service exists
// to optimize (queries served, per-type latency, cache effectiveness) are
// first-class results, never debug output.  `ServiceStats` is a plain value
// snapshot -- the query service keeps atomic counters internally and
// materializes one on request -- so snapshots compose with `operator+=`
// (e.g. summing per-shard or per-epoch stats) exactly like RunStats.
//
// Latency is a full obs::Histogram per query type, not min/mean/max scalars:
// quantiles survive composition, and an empty snapshot renders as zeros
// instead of a UINT64_MAX min sentinel.  Failed queries never touch the
// latency histogram -- their wall-clock goes to `error_ns` so error spikes
// cannot inflate the reported service latency.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace dapsp::service {

/// Occupancy of one vertex-range shard of the current oracle snapshot: a
/// row range of its one table (one shard covers every row when S = 1).
struct ShardInfo {
  std::uint32_t row_begin = 0;  ///< first source row owned by the shard
  std::uint32_t row_end = 0;    ///< one past the last owned row
  std::size_t bytes = 0;        ///< dist + next-hop bytes of those rows

  friend bool operator==(const ShardInfo&, const ShardInfo&) = default;
};

enum class QueryType : std::uint8_t {
  kDist,         ///< point lookup: distance u -> v
  kNextHop,      ///< first hop on a shortest path u -> v
  kPath,         ///< full path reconstruction u -> v
  kKPaths,       ///< k shortest loopless paths u -> v (analytics)
  kRoute,        ///< constrained route u -> v (analytics)
  kReport,       ///< whole-graph distance report (analytics)
  kBetweenness,  ///< betweenness centrality (analytics)
};
inline constexpr std::size_t kQueryTypeCount = 7;
/// The first three types are point lookups; only they are accepted inside
/// binary BATCH frames (analytics types have dedicated opcodes and bodies).
inline constexpr std::size_t kPointQueryTypeCount = 3;

inline const char* query_type_name(QueryType t) {
  switch (t) {
    case QueryType::kDist: return "dist";
    case QueryType::kNextHop: return "next";
    case QueryType::kPath: return "path";
    case QueryType::kKPaths: return "kpath";
    case QueryType::kRoute: return "route";
    case QueryType::kReport: return "report";
    case QueryType::kBetweenness: return "bc";
  }
  return "?";
}

/// Counters for one query type.
struct QueryTypeStats {
  /// Latency distribution (ns) of successful queries only.
  obs::Histogram latency;
  std::uint64_t errors = 0;    ///< malformed / unsupported queries
  std::uint64_t error_ns = 0;  ///< wall-clock spent on failed queries

  std::uint64_t count() const { return latency.count(); }
  std::uint64_t total_ns() const { return latency.sum(); }
  /// 0 when no query of this type succeeded (never a sentinel).
  std::uint64_t min_ns() const { return latency.min(); }
  std::uint64_t max_ns() const { return latency.max(); }
  double mean_ns() const { return latency.mean(); }
  std::uint64_t p50_ns() const { return latency.p50(); }
  std::uint64_t p90_ns() const { return latency.p90(); }
  std::uint64_t p99_ns() const { return latency.p99(); }

  QueryTypeStats& operator+=(const QueryTypeStats& o) {
    latency += o.latency;
    errors += o.errors;
    error_ns += o.error_ns;
    return *this;
  }
};

struct ServiceStats {
  std::array<QueryTypeStats, kQueryTypeCount> per_type;
  std::uint64_t batches = 0;  ///< query_batch calls
  /// Errors of the session rendering these stats: malformed lines or
  /// frames, rejected batches, unparsable batch entries.  The session sets
  /// it; the service, which only executes, leaves it 0.
  std::uint64_t protocol_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  // Snapshot lifecycle (hot-swap serving tier).  `snapshot_epoch` is the
  // epoch of the snapshot serving at the time of the stats() call; `swaps`
  // counts swap_snapshot publications; `swap_ns` is the latency of the
  // atomic publication itself and `rebuild_ns` the full background
  // build-and-swap durations reported by the SnapshotManager.
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t swaps = 0;
  obs::Histogram swap_ns;
  obs::Histogram rebuild_ns;
  /// Per-shard occupancy of the serving snapshot (row ranges + bytes).
  std::vector<ShardInfo> shards;
  /// Critical-path summary of the build that produced the serving snapshot;
  /// empty() unless that build ran with OracleBuildOptions::critpath.
  obs::CritPathSummary last_build_critpath;

  const QueryTypeStats& of(QueryType t) const {
    return per_type[static_cast<std::size_t>(t)];
  }
  QueryTypeStats& of(QueryType t) {
    return per_type[static_cast<std::size_t>(t)];
  }

  std::uint64_t total_queries() const {
    std::uint64_t n = 0;
    for (const auto& t : per_type) n += t.count();
    return n;
  }
  std::uint64_t total_errors() const {
    std::uint64_t n = 0;
    for (const auto& t : per_type) n += t.errors;
    return n;
  }
  double cache_hit_rate() const {
    const std::uint64_t probes = cache_hits + cache_misses;
    return probes == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(probes);
  }

  ServiceStats& operator+=(const ServiceStats& o) {
    for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
      per_type[i] += o.per_type[i];
    }
    batches += o.batches;
    protocol_errors += o.protocol_errors;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    // Counters compose; point-in-time snapshot state takes the newest epoch
    // and keeps this side's shard layout unless it has none.
    snapshot_epoch = std::max(snapshot_epoch, o.snapshot_epoch);
    swaps += o.swaps;
    swap_ns += o.swap_ns;
    rebuild_ns += o.rebuild_ns;
    if (shards.empty()) shards = o.shards;
    if (last_build_critpath.empty()) last_build_critpath = o.last_build_critpath;
    return *this;
  }

  std::string summary() const {
    std::ostringstream os;
    os << "queries=" << total_queries() << " errors=" << total_errors()
       << " protocol_errors=" << protocol_errors << " batches=" << batches;
    // Every type is listed -- including ones that have served nothing yet --
    // so dashboards see new query families appear with zeroed (never
    // sentinel) histograms the moment a build ships them.
    for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
      const auto& t = per_type[i];
      os << " " << query_type_name(static_cast<QueryType>(i)) << "[n="
         << t.count() << " mean_ns=" << static_cast<std::uint64_t>(t.mean_ns())
         << " p99_ns=" << t.p99_ns() << " max_ns=" << t.max_ns() << "]";
    }
    os << " cache[hits=" << cache_hits << " misses=" << cache_misses
       << " evictions=" << cache_evictions << "]";
    os << " snapshot[epoch=" << snapshot_epoch << " swaps=" << swaps
       << " shards=" << shards.size() << "]";
    if (!last_build_critpath.empty()) {
      const auto& c = last_build_critpath;
      os << " critpath[runs=" << c.runs << " chain=" << c.chain_len
         << " cost=" << c.total_cost << " total_ns=" << c.total_ns
         << " compute_ns=" << c.compute_ns << " deliver_ns=" << c.deliver_ns
         << " wait_ns=" << c.wait_ns
         << (c.truncated || c.items_dropped != 0 ? " truncated" : "") << "]";
    }
    return os.str();
  }

  /// One JSON object with full per-type histograms; used by `serve --format
  /// json` so the "stats" directive emits machine-readable data instead of a
  /// summary string jammed into a JSON string field.
  void write_json(obs::JsonWriter& w) const {
    w.begin_object()
        .field("queries", total_queries())
        .field("errors", total_errors())
        .field("protocol_errors", protocol_errors)
        .field("batches", batches);
    w.key("types").begin_object();
    for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
      const auto& t = per_type[i];
      w.key(query_type_name(static_cast<QueryType>(i))).begin_object();
      w.field("count", t.count())
          .field("errors", t.errors)
          .field("error_ns", t.error_ns);
      w.key("latency_ns");
      t.latency.write_json(w);
      w.end_object();
    }
    w.end_object();
    w.key("cache")
        .begin_object()
        .field("hits", cache_hits)
        .field("misses", cache_misses)
        .field("evictions", cache_evictions)
        .field("hit_rate", cache_hit_rate())
        .end_object();
    w.key("snapshot")
        .begin_object()
        .field("epoch", snapshot_epoch)
        .field("swaps", swaps)
        .field("shard_count", static_cast<std::uint64_t>(shards.size()));
    w.key("swap_ns");
    swap_ns.write_json(w);
    w.key("rebuild_ns");
    rebuild_ns.write_json(w);
    w.key("shards").begin_array();
    for (const ShardInfo& s : shards) {
      w.begin_object()
          .field("row_begin", static_cast<std::uint64_t>(s.row_begin))
          .field("row_end", static_cast<std::uint64_t>(s.row_end))
          .field("bytes", static_cast<std::uint64_t>(s.bytes))
          .end_object();
    }
    w.end_array();
    w.end_object();
    if (!last_build_critpath.empty()) {
      w.key("critpath");
      last_build_critpath.write_json(w);
    }
    w.end_object();
  }
};

}  // namespace dapsp::service
