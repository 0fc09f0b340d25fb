// Sequential reference for k-shortest loopless paths (Yen's algorithm).
//
// Returns the k minimum-weight simple paths: the canonical shortest path
// first, then the later paths in (weight, hops, lexicographic node
// sequence) order -- query::route_less -- so weights never decrease.  Every
// spur path is computed by the canonical constrained reference
// (seq/constrained.hpp), so the output is a deterministic function of the
// graph alone.  The
// closure-accelerated engine (query::Analytics::k_shortest) implements the
// same contract and must match it path-for-path in the differential suite.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "query/types.hpp"

namespace dapsp::seq {

/// Up to `k` shortest loopless paths from `source` to `target`: the
/// canonical path, then the rest in query::route_less order (the canonical
/// path itself need not be the route_less minimum among equal weights);
/// fewer (possibly zero) when the graph holds fewer distinct simple paths.
/// Ids must be < g.node_count().
std::vector<query::Route> k_shortest_paths(const graph::Graph& g,
                                           graph::NodeId source,
                                           graph::NodeId target,
                                           std::uint32_t k);

}  // namespace dapsp::seq
