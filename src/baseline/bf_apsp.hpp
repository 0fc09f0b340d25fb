// Distributed Bellman-Ford (the classic CONGEST SSSP/APSP comparator, and
// the SSSP building block of Algorithm 3's Steps 3-4).
//
// One SSSP takes at most n rounds: every node rebroadcasts its label when it
// improves.  Reverse mode computes distances *into* the root (dist(v, root))
// using the bidirectional communication links of the CONGEST model.
// The APSP baseline runs the n SSSPs back-to-back, which is the classic
// O(n^2)-round deterministic approach Table I improves upon.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"

namespace dapsp::baseline {

using graph::NodeId;
using graph::Weight;

struct BfSsspResult {
  std::vector<Weight> dist;
  std::vector<std::uint32_t> hops;
  std::vector<NodeId> parent;
  congest::RunStats stats;
  congest::Round settle_round = 0;
};

/// Forward SSSP from `source`; `reverse` computes dist(v, source) instead.
/// `max_rounds` of 0 means n + 2.
BfSsspResult bf_sssp(const graph::Graph& g, NodeId source, bool reverse = false,
                     congest::Round max_rounds = 0,
                     const congest::RunEnv& env = {});

struct BfApspResult {
  std::vector<std::vector<Weight>> dist;    ///< dist[s][v]
  std::vector<std::vector<NodeId>> parent;  ///< parent[s][v], as bf_sssp's
  congest::RunStats stats;                  ///< n sequential SSSP phases
};

/// n sequential Bellman-Ford SSSPs (the O(n^2)-round baseline).
BfApspResult bf_apsp(const graph::Graph& g, const congest::RunEnv& env = {});

}  // namespace dapsp::baseline
