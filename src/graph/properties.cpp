#include "graph/properties.hpp"

#include <algorithm>
#include <queue>

#include "seq/dijkstra.hpp"
#include "seq/hop_limited.hpp"

namespace dapsp::graph {

Weight max_finite_distance(const Graph& g) {
  std::vector<Weight> dist(g.node_count());
  seq::RowWorkspace ws;
  Weight best = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    seq::dijkstra_row(g, s, dist, {}, ws);
    for (const Weight d : dist) {
      if (d != kInfDist) best = std::max(best, d);
    }
  }
  return best;
}

Weight max_finite_hop_distance(const Graph& g, std::uint32_t h) {
  Weight best = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto r = seq::hop_limited_sssp(g, s, h);
    for (const Weight d : r.dist) {
      if (d != kInfDist) best = std::max(best, d);
    }
  }
  return best;
}

bool strongly_connected(const Graph& g) {
  // Strongly connected iff node 0 reaches every node (BFS over out-arcs)
  // and every node reaches node 0 (BFS over in-arcs).
  const NodeId n = g.node_count();
  if (n <= 1) return true;
  for (const bool forward : {true, false}) {
    std::vector<bool> seen(n, false);
    std::vector<NodeId> order{0};
    seen[0] = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const NodeId u = order[i];
      for (const Edge& e : forward ? g.out_edges(u) : g.in_edges(u)) {
        const NodeId v = forward ? e.to : e.from;
        if (!seen[v]) {
          seen[v] = true;
          order.push_back(v);
        }
      }
    }
    if (order.size() != n) return false;
  }
  return true;
}

namespace {

/// BFS eccentricities over the communication graph.
std::vector<Weight> comm_bfs(const Graph& g, NodeId source) {
  std::vector<Weight> dist(g.node_count(), kInfDist);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const NodeId v : g.comm_neighbors(u)) {
      if (dist[v] == kInfDist) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

}  // namespace

Weight comm_diameter(const Graph& g) {
  Weight best = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (const Weight d : comm_bfs(g, s)) {
      if (d == kInfDist) return kInfDist;
      best = std::max(best, d);
    }
  }
  return best;
}

bool comm_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  const auto dist = comm_bfs(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](Weight d) { return d == kInfDist; });
}

}  // namespace dapsp::graph
