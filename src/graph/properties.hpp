// Whole-graph properties used to parameterize the algorithms (Delta, W) and
// to validate generator output.  These are sequential oracles: in the real
// CONGEST setting such quantities are either promised or computed by the
// algorithms themselves.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace dapsp::graph {

/// Maximum finite shortest-path distance over all ordered pairs (the paper's
/// Delta when every pair is reachable).  Computed by n distance-only runs of
/// the closure kernel seq::dijkstra_row, one reused workspace.
Weight max_finite_distance(const Graph& g);

/// Maximum finite *h-hop* shortest-path distance over all ordered pairs.
Weight max_finite_hop_distance(const Graph& g, std::uint32_t h);

/// True if every ordered pair (u,v) has a directed path u->v.  O(n + m):
/// one BFS from node 0 over out-arcs and one over in-arcs.
bool strongly_connected(const Graph& g);

/// Hop-diameter of the communication (undirected) graph; kNoNode pieces make
/// it kInfDist.  Used to size broadcast budgets.
Weight comm_diameter(const Graph& g);

/// True if the communication graph is connected.
bool comm_connected(const Graph& g);

}  // namespace dapsp::graph
