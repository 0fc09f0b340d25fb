// All-sources h-hop APSP by running one single-source short-range
// (Algorithm 2) instance per node through the deterministic multiplexer
// (Section II-C's construction, with FIFO scheduling standing in for the
// randomized framework [10] the paper cites).
//
// Round cost is dilation + queueing delay: O(Delta*sqrt(h) + n*sqrt(h)).
// Algorithm 1 exists precisely to beat this one-instance-per-source shape
// with a single pipelined execution; the E10 bench puts the two head to
// head.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "core/key.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

struct ScaledApspParams {
  std::uint32_t h = 0;  ///< hop budget per source
  Weight delta = 0;     ///< distance bound (for the budget formula)
  /// Per-instance key schedule; default sqrt(h) as in Algorithm 2.
  GammaSq gamma{0, 0};
  congest::RunEnv env{};
};

struct ScaledApspResult {
  std::vector<std::vector<Weight>> dist;  ///< dist[s][v]
  std::vector<std::vector<std::uint32_t>> hops;
  congest::RunStats stats;
  /// Largest per-link FIFO backlog observed (the scheduling congestion).
  std::size_t max_queue_depth = 0;
  /// Dilation + n * per-instance-congestion budget (the II-C shape).
  std::uint64_t theoretical_bound = 0;
};

ScaledApspResult scaled_hhop_apsp(const graph::Graph& g,
                                  ScaledApspParams params);

}  // namespace dapsp::core
