// Pipelined APSP in the style of Lenzen-Peleg / Holzer-Wattenhofer [12],[17]:
// the unweighted algorithm the paper's Algorithm 1 generalizes.
//
// Every node keeps one best distance d(s) per source, sorted; in round r it
// sends the d(s) with d(s) + pos(s) == r.  For unit weights this computes
// APSP in < 2n rounds with one message per node per source [12].  The same
// schedule stays correct for arbitrary *positive* integer weights (each hop
// decreases the predecessor's distance by at least 1, which is the property
// zero-weight edges break -- Section II of the paper); with distances
// bounded by cap the round bound becomes cap + k + O(1).
//
// The approximate-APSP algorithm (Section IV) uses this twice: on the
// zero-weight subgraph (as plain unweighted reachability) and on the scaled
// positive graphs, so the runner takes an edge-weight transform and an
// optional distance cap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"

namespace dapsp::baseline {

using graph::NodeId;
using graph::Weight;

struct PositiveApspParams {
  /// Sources (defaults to all nodes when empty).
  std::vector<NodeId> sources;
  /// Maps each arc's weight to the weight used by the run, or nullopt to
  /// drop the arc entirely.  Must return weights >= 1.  Defaults to
  /// "every arc has weight 1" (pure unweighted APSP).
  std::function<std::optional<Weight>(const graph::Edge&)> weight_of;
  /// Distances above the cap are not propagated (0 = no cap).
  Weight distance_cap = 0;
  congest::Round max_rounds = 0;  ///< 0 = derive from cap/k
  congest::RunEnv env{};
};

struct PositiveApspResult {
  std::vector<NodeId> sources;
  std::vector<std::vector<Weight>> dist;  ///< dist[i][v], kInfDist if uncapped
  congest::RunStats stats;
  congest::Round settle_round = 0;
  std::uint64_t max_sends_per_node_per_source = 0;
};

PositiveApspResult positive_apsp(const graph::Graph& g,
                                 PositiveApspParams params);

/// Unweighted APSP of [12]: hop distances between all pairs in < 2n rounds.
PositiveApspResult unweighted_apsp(const graph::Graph& g,
                                   const congest::RunEnv& env = {});

/// All-pairs zero-weight reachability (Section IV step 1): unweighted APSP
/// over the zero-weight arcs only.  reach[s][v] true iff a zero-weight path
/// s -> v exists.
std::vector<std::vector<bool>> zero_reach_congest(
    const graph::Graph& g, congest::RunStats* stats,
    const congest::RunEnv& env = {});

}  // namespace dapsp::baseline
