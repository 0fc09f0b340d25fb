// (1+eps)-approximate APSP for non-negative integer weights with zero-weight
// edges allowed (Section IV, Theorem I.5).
//
// Zero edges break the classic positive-weight approximation (which replaces
// a weight-d edge by d unit edges).  The paper's fix:
//   1. Compute all-pairs zero-weight reachability (unweighted APSP over the
//      zero-weight subgraph, O(n) rounds); those pairs have exact distance 0.
//   2. Lift to G' with w'(e) = 1 for zero edges, n^2 * w(e) otherwise; every
//      remaining pair has delta'(u,v) >= 1 and
//      n^2*delta <= delta' <= n^2*delta + n.
//   3. Run a (1+eps/3)-approximation on the positive graph G' via per-scale
//      weight rounding: for each scale 2^i, round weights up to multiples of
//      eps*2^i/(3n) and run the pipelined positive-weight APSP with a capped
//      distance (O(n/eps) rounds per scale, O(log (n W)) scales).
//   4. Scale back, divide by n^2, and use 0 for zero-reachable pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

using graph::NodeId;
using graph::Weight;

struct ApproxApspParams {
  double eps = 0.5;  ///< must satisfy eps > 3/n for the paper's guarantee
  congest::RunEnv env{};
};

struct ApproxApspResult {
  /// dist[s][v]: estimate with delta <= dist <= (1+eps)*delta
  /// (exact 0 for zero-weight-reachable pairs, kInfDist when unreachable).
  std::vector<std::vector<Weight>> dist;
  congest::RunStats stats;
  std::uint32_t scales = 0;
  /// Theorem I.5's O((n/eps^2) log n) form (no constants) -- the asymptotic
  /// comparison row printed by the bench.
  std::uint64_t paper_bound = 0;
  /// This implementation's explicit budget: scales * (2*ceil(3n/eps) + n +
  /// k + slack) rounds, which is O((n/eps) log(nW)) -- inside the theorem's
  /// envelope with room to spare.  Tests assert measured <= this.
  std::uint64_t implementation_bound = 0;
};

ApproxApspResult approx_apsp(const graph::Graph& g, ApproxApspParams params);

}  // namespace dapsp::core
