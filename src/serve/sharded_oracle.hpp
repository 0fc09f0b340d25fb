// Vertex-range-sharded distance oracle: the serving-tier representation of
// the APSP closure.
//
// The paper's algorithms are per-node sharded by construction -- every node
// ends the run holding its own source row of distances and parents.  The
// flat DistanceOracle densifies that into one n x n allocation; ShardedOracle
// keeps the row partition: shard i owns the contiguous source rows
// [i*ceil(n/S), min(n, (i+1)*ceil(n/S))) as its own allocations.  Queries
// route by integer division (no per-query search), so dist/next_hop stay
// O(1) and answer bit-identically to the flat oracle for every shard count
// (differential-tested across S in {1,2,4,8} for all five solvers).
//
// Sharding buys the serving tier three things:
//   * rebuild locality -- shards can be constructed independently (the
//     reference builder fills each shard straight from per-source Dijkstra
//     runs without ever materializing the flat matrix);
//   * allocation granularity -- S allocations of ~n^2/S bytes instead of one
//     n^2 block, the shape a NUMA-aware or multi-process tier needs;
//   * occupancy observability -- per-shard row ranges and byte counts are
//     reported through ServiceStats ("shards" in the stats JSONL).
#pragma once

#include <memory>
#include <vector>

#include "service/snapshot.hpp"

namespace dapsp::serve {

using service::NodeId;
using service::ShardInfo;
using service::Weight;

class ShardedOracle final : public service::OracleSnapshot {
 public:
  /// Partitions a finished flat oracle into `shards` vertex-range shards by
  /// copying rows (the oracle's solver/exactness/stats provenance carries
  /// over).  `shards` is clamped to [1, n].
  static std::shared_ptr<ShardedOracle> from_flat(
      const service::DistanceOracle& oracle, std::size_t shards);

  NodeId node_count() const noexcept override { return n_; }
  bool exact() const noexcept override { return exact_; }
  bool has_paths() const noexcept override { return has_paths_; }
  const std::string& solver_label() const noexcept override { return label_; }
  const congest::RunStats& build_stats() const noexcept override {
    return stats_;
  }
  const obs::CritPathSummary* build_critpath() const noexcept override {
    return critpath_.empty() ? nullptr : &critpath_;
  }
  std::size_t memory_bytes() const noexcept override;

  Weight dist(NodeId u, NodeId v) const noexcept override {
    const Shard& s = shards_[u / rows_per_shard_];
    return s.dist[static_cast<std::size_t>(u - s.row_begin) * n_ + v];
  }
  NodeId next_hop(NodeId u, NodeId v) const noexcept override {
    if (!has_paths_) return graph::kNoNode;
    const Shard& s = shards_[u / rows_per_shard_];
    return s.next[static_cast<std::size_t>(u - s.row_begin) * n_ + v];
  }

  std::size_t shard_count() const noexcept override { return shards_.size(); }
  ShardInfo shard_info(std::size_t shard) const noexcept override;

 private:
  friend std::shared_ptr<ShardedOracle> build_sharded_oracle(
      const graph::Graph& g, const service::OracleBuildOptions& opts,
      std::size_t shards);

  struct Shard {
    NodeId row_begin = 0;
    NodeId row_end = 0;
    std::vector<Weight> dist;  // row-major [(u - row_begin)*n + v]
    std::vector<NodeId> next;  // empty for distance-only oracles
  };

  ShardedOracle(NodeId n, std::size_t shards);

  NodeId n_ = 0;
  NodeId rows_per_shard_ = 1;
  bool exact_ = true;
  bool has_paths_ = false;
  std::string label_;
  congest::RunStats stats_;
  obs::CritPathSummary critpath_;  ///< empty unless the build was profiled
  std::vector<Shard> shards_;
};

/// Enum-dispatched sharded factory, mirroring service::build_oracle.  The
/// kReference solver runs the flat builder's row loop
/// (service::fill_reference_rows) with each source's rows placed in its
/// shard, never materializing a flat n x n matrix; the CONGEST solvers
/// produce the full closure and are partitioned row-by-row.  Throws like
/// build_oracle (empty graph, fault partition).
std::shared_ptr<ShardedOracle> build_sharded_oracle(
    const graph::Graph& g, const service::OracleBuildOptions& opts,
    std::size_t shards);

}  // namespace dapsp::serve
