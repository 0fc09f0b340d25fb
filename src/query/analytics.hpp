// Closure-backed analytics engine: the four query families the serving tier
// answers on top of the APSP distance/next-hop closure.
//
//  * k_shortest      -- Yen's loopless k-shortest paths, with every spur
//                       search answered through `constrained_route` (below),
//                       so the common case reads one closure walk instead of
//                       running a graph search.
//  * constrained_route -- canonical shortest path under avoid-node /
//                       avoid-edge sets and a hop budget.  Fast path: the
//                       closure's canonical path is re-walked against the
//                       constraints (O(path) from dist row + next-hop); only
//                       when it is infeasible does the engine fall back to a
//                       filtered search, still pruned by closure
//                       reachability (a node that cannot reach the target
//                       unconstrained can never appear on a feasible route).
//  * report          -- eccentricity / radius / diameter / farness from row
//                       scans of the served dist matrix, parallelized over
//                       the snapshot's source rows.
//  * betweenness     -- Brandes accumulation over the canonical
//                       shortest-path DAG reconstructed per source from the
//                       served dist row: tight arcs (d[u] + w = d[v])
//                       filtered to hop-minimal ones via a BFS that recovers
//                       l(s, .), which keeps the DAG acyclic under
//                       zero-weight edges.
//
// All answers follow the canonical (weight, hops, min-parent-id) contract of
// query/types.hpp; tests/property_test.cpp holds them bit-equal (betweenness:
// numerically equal) to the sequential references in src/seq/.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "query/types.hpp"
#include "service/oracle.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::query {

class Analytics {
 public:
  /// The graph must be the one the served snapshots were built from; every
  /// method checks node_count agreement and the snapshot's capabilities
  /// (next-hop table present, exact distances) before answering.
  explicit Analytics(std::shared_ptr<const graph::Graph> g);

  const graph::Graph& graph() const noexcept { return *g_; }

  /// Up to k shortest loopless paths source->target: the canonical path
  /// first, then the later routes in route_less order, so weights never
  /// decrease.  Requires snap.has_paths().  Empty when target is
  /// unreachable.
  std::vector<Route> k_shortest(const service::DistanceOracle& snap, NodeId u,
                                NodeId v, std::uint32_t k) const;

  /// Canonical constrained shortest path, or nullopt when infeasible.
  /// Requires snap.has_paths().
  std::optional<Route> constrained_route(const service::DistanceOracle& snap,
                                         NodeId u, NodeId v,
                                         const RouteConstraints& c) const;

  /// Whole-graph distance report; row scans run on `pool`.  Requires
  /// snap.exact().
  GraphReport report(const service::DistanceOracle& snap,
                     util::ThreadPool& pool) const;

  /// Betweenness centrality over betweenness_sources(n, samples).  Sources
  /// are processed in fixed-size chunks whose partial scores are reduced in
  /// chunk order, so the result is bit-identical for every thread count.
  /// Requires snap.exact() (the tight-arc test needs exact distances).
  std::vector<double> betweenness(const service::DistanceOracle& snap,
                                  std::uint32_t samples,
                                  util::ThreadPool& pool) const;

 private:
  std::optional<Route> constrained_search(const service::DistanceOracle& snap,
                                          NodeId u, NodeId v,
                                          const RouteConstraints& c) const;

  std::shared_ptr<const graph::Graph> g_;
};

}  // namespace dapsp::query
