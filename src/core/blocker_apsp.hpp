// Algorithm 3: the faster k-SSP / APSP algorithm (Section III, Theorems I.2
// and I.3).
//
// Pipeline:
//   1. h-hop CSSSP from every source (Algorithm 1 with hop bound 2h).
//   2. Greedy blocker set Q over those trees (Section III-B).
//   3. For each blocker c, full SSSP trees rooted at c: forward (dist(c, v))
//      and reverse (dist(v, c)) distributed Bellman-Ford, n rounds each.
//   4. Each source x knows dist(x, c) after the reverse runs; the q*k values
//      are gathered and broadcast to everyone.
//   5. Local combine: dist(x, v) = min(2h-hop dist, min_c dist(x,c) +
//      dist(c, v)).  Any shortest path with more than h hops passes through
//      a depth-h tree leaf whose root path contains a blocker, which makes
//      the combine exact.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "core/cssp.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

struct BlockerApspParams {
  std::vector<NodeId> sources;  ///< k sources; empty = all nodes (APSP)
  /// Hop parameter h; 0 = choose by Theorem I.2's balance using W, or by
  /// Theorem I.3's balance when `delta_for_h` is set.
  std::uint32_t h = 0;
  /// When nonzero and h == 0, choose h by Theorem I.3's Delta balance with
  /// this distance bound instead of Theorem I.2's weight balance.
  Weight delta_for_h = 0;
  congest::RunEnv env{};
};

struct BlockerApspResult {
  std::vector<NodeId> sources;
  std::vector<std::vector<Weight>> dist;    ///< exact dist[i][v]
  std::vector<std::vector<NodeId>> parent;  ///< last edge on a shortest path
  std::vector<NodeId> blockers;
  std::uint32_t h = 0;
  congest::RunStats stats;  ///< all phases composed sequentially
  std::uint64_t theoretical_bound = 0;
  /// Phase-level round breakdown (sums to stats.rounds).
  congest::Round cssp_rounds = 0;
  congest::Round blocker_rounds = 0;
  congest::Round sssp_rounds = 0;
  congest::Round combine_rounds = 0;
};

BlockerApspResult blocker_apsp(const graph::Graph& g, BlockerApspParams params);

}  // namespace dapsp::core
