#include "serve/sharded_oracle.hpp"

#include <algorithm>

#include "util/int_math.hpp"

namespace dapsp::serve {

ShardedOracle::ShardedOracle(NodeId n, std::size_t shards) : n_(n) {
  const std::size_t s =
      std::clamp<std::size_t>(shards, 1, static_cast<std::size_t>(n));
  rows_per_shard_ = static_cast<NodeId>((n + s - 1) / s);
  // ceil(n / rows_per_shard) shards cover [0, n); the last may be short.
  const std::size_t count = (n + rows_per_shard_ - 1) / rows_per_shard_;
  shards_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_[i].row_begin = static_cast<NodeId>(i * rows_per_shard_);
    shards_[i].row_end = static_cast<NodeId>(
        std::min<std::size_t>(n, (i + 1) * rows_per_shard_));
  }
}

std::size_t ShardedOracle::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    total += s.dist.size() * sizeof(Weight) + s.next.size() * sizeof(NodeId);
  }
  return total;
}

ShardInfo ShardedOracle::shard_info(std::size_t shard) const noexcept {
  const Shard& s = shards_[shard];
  return {s.row_begin, s.row_end,
          s.dist.size() * sizeof(Weight) + s.next.size() * sizeof(NodeId)};
}

std::shared_ptr<ShardedOracle> ShardedOracle::from_flat(
    const service::DistanceOracle& oracle, std::size_t shards) {
  const NodeId n = oracle.node_count();
  util::check(n > 0, "ShardedOracle::from_flat: empty oracle");
  auto out = std::shared_ptr<ShardedOracle>(new ShardedOracle(n, shards));
  out->exact_ = oracle.exact();
  out->has_paths_ = oracle.has_paths();
  out->label_ = oracle.solver_label();
  out->stats_ = oracle.build_stats();
  out->critpath_ = oracle.meta().critpath;
  for (Shard& s : out->shards_) {
    const std::size_t rows = s.row_end - s.row_begin;
    s.dist.reserve(rows * n);
    if (out->has_paths_) s.next.reserve(rows * n);
    for (NodeId u = s.row_begin; u < s.row_end; ++u) {
      const auto drow = oracle.dist_row(u);
      s.dist.insert(s.dist.end(), drow.begin(), drow.end());
      if (out->has_paths_) {
        const auto nrow = oracle.next_row(u);
        s.next.insert(s.next.end(), nrow.begin(), nrow.end());
      }
    }
  }
  return out;
}

std::shared_ptr<ShardedOracle> build_sharded_oracle(
    const graph::Graph& g, const service::OracleBuildOptions& opts,
    std::size_t shards) {
  util::check(g.node_count() > 0, "build_sharded_oracle: empty graph");
  if (opts.solver != service::Solver::kReference) {
    // The CONGEST solvers return the full closure in one piece (and the
    // fault-partition cross-check in build_oracle must see it whole);
    // partition the finished oracle row-by-row.
    return ShardedOracle::from_flat(service::build_oracle(g, opts), shards);
  }
  // Reference solver: the flat builder's row loop writes each source's rows
  // straight into its shard -- no flat n x n matrix ever exists, so peak
  // memory is the sharded result itself, and the output is bit-identical
  // to from_flat(build_oracle(g, kReference)).
  const NodeId n = g.node_count();
  auto out = std::shared_ptr<ShardedOracle>(new ShardedOracle(n, shards));
  out->exact_ = true;
  out->has_paths_ = true;
  out->label_ = service::kReferenceLabel;
  for (auto& s : out->shards_) {
    const std::size_t rows = s.row_end - s.row_begin;
    s.dist.resize(rows * n);
    s.next.resize(rows * n);
  }
  service::fill_reference_rows(g, [&](NodeId u) {
    auto& s = out->shards_[u / out->rows_per_shard_];
    const std::size_t off = static_cast<std::size_t>(u - s.row_begin) * n;
    return service::RowSlot{s.dist.data() + off, s.next.data() + off};
  });
  return out;
}

}  // namespace dapsp::serve
