// Differential tests for the sharded layout of the oracle: for every solver
// and shard count, build_oracle(g, opts, S) must answer bit-identically to
// the one-shard build of the same graph -- distances, next hops, full
// reconstructed paths and the producing run's counts.  A shard is a reported
// row range of the one table, never a semantics change.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "service/oracle.hpp"

namespace dapsp::serve {
namespace {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using service::NodeId;

const std::size_t kShardCounts[] = {1, 2, 4, 8};

void expect_identical(const service::DistanceOracle& flat,
                      const service::DistanceOracle& sharded) {
  const NodeId n = flat.node_count();
  ASSERT_EQ(sharded.node_count(), n);
  EXPECT_EQ(sharded.exact(), flat.exact());
  EXPECT_EQ(sharded.has_paths(), flat.has_paths());
  EXPECT_EQ(sharded.solver_label(), flat.solver_label());
  EXPECT_EQ(sharded.build_stats().rounds, flat.build_stats().rounds);
  EXPECT_EQ(sharded.build_stats().total_messages,
            flat.build_stats().total_messages);
  EXPECT_EQ(sharded.build_stats().message_bytes,
            flat.build_stats().message_bytes);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(sharded.dist(u, v), flat.dist(u, v)) << u << "->" << v;
      ASSERT_EQ(sharded.next_hop(u, v), flat.next_hop(u, v))
          << u << "->" << v;
      const auto pf = flat.path(u, v);
      const auto ps = sharded.path(u, v);
      ASSERT_EQ(ps.has_value(), pf.has_value()) << u << "->" << v;
      if (pf) {
        ASSERT_EQ(*ps, *pf) << u << "->" << v;
      }
    }
  }
}

/// Shard ranges must partition [0, n) in order with no gaps or overlaps,
/// and byte counts must sum to the reported total.
void expect_valid_layout(const service::DistanceOracle& snap) {
  const auto layout = snap.shard_layout();
  ASSERT_FALSE(layout.empty());
  std::uint32_t expect_begin = 0;
  std::size_t bytes = 0;
  for (const service::ShardInfo& s : layout) {
    EXPECT_EQ(s.row_begin, expect_begin);
    EXPECT_LT(s.row_begin, s.row_end);
    expect_begin = s.row_end;
    bytes += s.bytes;
  }
  EXPECT_EQ(expect_begin, snap.node_count());
  EXPECT_EQ(bytes, snap.memory_bytes());
}

TEST(ShardedOracle, BitIdenticalToFlatAcrossSolversAndShardCounts) {
  const Graph g = graph::erdos_renyi(18, 0.2, {0, 7, 0.3}, 901);
  for (const service::Solver s :
       {service::Solver::kPipelined, service::Solver::kBlocker,
        service::Solver::kScaled, service::Solver::kApprox,
        service::Solver::kReference, service::Solver::kBellmanFord}) {
    const service::OracleBuildOptions opts{s, 0, 0.5};
    const service::DistanceOracle flat = service::build_oracle(g, opts);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE(std::string("solver=") + service::solver_name(s) +
                   " shards=" + std::to_string(shards));
      const auto sharded = service::build_oracle(g, opts, shards);
      expect_identical(flat, sharded);
      expect_valid_layout(sharded);
      // Equal rows-per-shard partitioning: ceil(n / ceil(n/S)) shards.
      const std::size_t n = g.node_count();
      const std::size_t rows =
          (n + std::min(shards, n) - 1) / std::min(shards, n);
      EXPECT_EQ(sharded.shard_count(), (n + rows - 1) / rows);
    }
  }
}

TEST(ShardedOracle, ShardCountClampedToNodeCount) {
  const Graph g = graph::path(3, {1, 4, 0.0}, 903);
  const auto snap = service::build_oracle(
      g, {service::Solver::kReference, 0, 0.5}, 64);
  EXPECT_EQ(snap.shard_count(), 3u);
  expect_valid_layout(snap);
}

TEST(ShardedOracle, SingleNodeGraph) {
  const Graph g = graph::path(1, {1, 1, 0.0}, 904);
  const auto snap = service::build_oracle(
      g, {service::Solver::kReference, 0, 0.5}, 4);
  EXPECT_EQ(snap.shard_count(), 1u);
  EXPECT_EQ(snap.dist(0, 0), 0);
  const auto p = snap.path(0, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, std::vector<NodeId>{0});
}

TEST(ShardedOracle, UnevenLastShard) {
  // n = 10, shards = 4 -> rows-per-shard 3 and a final shard of one row;
  // every row must still be owned exactly once, at 12 bytes a cell.
  const Graph g = graph::erdos_renyi(10, 0.3, {0, 5, 0.2}, 905);
  const service::OracleBuildOptions opts{service::Solver::kReference, 0, 0.5};
  const service::DistanceOracle flat = service::build_oracle(g, opts);
  const auto snap = service::build_oracle(g, opts, 4);
  EXPECT_EQ(snap.shard_count(), 4u);
  EXPECT_EQ(snap.shard_info(3).row_end - snap.shard_info(3).row_begin, 1u);
  EXPECT_EQ(snap.shard_layout(),
            (std::vector<service::ShardInfo>{
                {0, 3, 360}, {3, 6, 360}, {6, 9, 360}, {9, 10, 120}}));
  EXPECT_EQ(snap.memory_bytes(), 1200u);
  expect_identical(flat, snap);
  expect_valid_layout(snap);
}

TEST(ShardedOracle, ApproxShardsAreDistanceOnly) {
  const Graph g = graph::erdos_renyi(14, 0.3, {1, 6, 0.0}, 906);
  const auto snap = service::build_oracle(
      g, {service::Solver::kApprox, 0, 0.5}, 4);
  EXPECT_FALSE(snap.has_paths());
  EXPECT_FALSE(snap.exact());
  EXPECT_EQ(snap.next_hop(0, 1), kNoNode);
  EXPECT_FALSE(snap.path(0, 1).has_value());
  // Distance-only: 8 bytes a cell.
  EXPECT_EQ(snap.shard_layout(),
            (std::vector<service::ShardInfo>{
                {0, 4, 448}, {4, 8, 448}, {8, 12, 448}, {12, 14, 224}}));
  EXPECT_EQ(snap.memory_bytes(), 1568u);
}

TEST(ShardedOracle, ReportsOneShardCoveringEveryRow) {
  const Graph g = graph::erdos_renyi(12, 0.3, {0, 6, 0.2}, 907);
  const auto snap = service::build_oracle(
      g, {service::Solver::kReference, 0, 0.5});
  EXPECT_EQ(snap.shard_count(), 1u);
  EXPECT_EQ(snap.shard_info(0).row_begin, 0u);
  EXPECT_EQ(snap.shard_info(0).row_end, 12u);
  EXPECT_EQ(snap.shard_info(0).bytes, 12u * 12u * 12u);
  expect_valid_layout(snap);
}

}  // namespace
}  // namespace dapsp::serve
