#include "seq/dijkstra.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "util/int_math.hpp"

namespace dapsp::seq {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::Weight;

namespace {

/// Priority-queue entry ordered by (dist, hops, node) so the settled
/// labels realize the paper's (d, l) tie-breaking deterministically.
struct QEntry {
  Weight dist;
  std::uint32_t hops;
  NodeId via;   // parent candidate
  NodeId node;

  bool operator>(const QEntry& o) const {
    return std::tie(dist, hops, via, node) >
           std::tie(o.dist, o.hops, o.via, o.node);
  }
};

template <typename EdgeFn>
SsspResult run(const Graph& g, NodeId source, EdgeFn&& edges_of) {
  const NodeId n = g.node_count();
  SsspResult r;
  r.dist.assign(n, kInfDist);
  r.hops.assign(n, 0);
  r.parent.assign(n, kNoNode);

  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  pq.push({0, 0, kNoNode, source});
  std::vector<bool> settled(n, false);

  while (!pq.empty()) {
    const QEntry top = pq.top();
    pq.pop();
    if (settled[top.node]) continue;
    settled[top.node] = true;
    r.dist[top.node] = top.dist;
    r.hops[top.node] = top.hops;
    r.parent[top.node] = top.via;
    for (const auto& [nbr, w] : edges_of(top.node)) {
      if (!settled[nbr]) {
        pq.push({top.dist + w, top.hops + 1, top.node, nbr});
      }
    }
  }
  return r;
}

}  // namespace

SsspResult dijkstra(const Graph& g, NodeId source) {
  return run(g, source, [&g](NodeId v) {
    std::vector<std::pair<NodeId, Weight>> out;
    out.reserve(g.out_edges(v).size());
    for (const auto& e : g.out_edges(v)) out.emplace_back(e.to, e.weight);
    return out;
  });
}

SsspResult dijkstra_reverse(const Graph& g, NodeId target) {
  return run(g, target, [&g](NodeId v) {
    std::vector<std::pair<NodeId, Weight>> out;
    out.reserve(g.in_edges(v).size());
    for (const auto& e : g.in_edges(v)) out.emplace_back(e.from, e.weight);
    return out;
  });
}

void dijkstra_row(const Graph& g, NodeId source, std::span<Weight> dist,
                  std::span<NodeId> next, RowWorkspace& ws) {
  const NodeId n = g.node_count();
  util::check(source < n && dist.size() == n &&
                  (next.empty() || next.size() == n),
              "dijkstra_row: source out of range or row size is not n");
  std::fill(dist.begin(), dist.end(), kInfDist);
  std::fill(next.begin(), next.end(), kNoNode);
  // Grow-only: hops/via of a node are read only once dist is finite, and
  // every finite dist was written together with them in this call.
  if (ws.hops.size() < n) {
    ws.hops.resize(n);
    ws.via.resize(n);
  }
  std::uint32_t* const hops = ws.hops.data();
  NodeId* const via = ws.via.data();
  auto& heap = ws.heap;
  // Min-heap on (dist, hops).  Ties between nodes need no order: a label
  // never depends on the order in which equal keys settle.
  const auto later = [](const RowWorkspace::Entry& a,
                        const RowWorkspace::Entry& b) {
    return a.dist != b.dist ? a.dist > b.dist : a.hops > b.hops;
  };

  dist[source] = 0;
  hops[source] = 0;
  via[source] = kNoNode;
  heap.clear();
  heap.push_back({0, 0, source});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const RowWorkspace::Entry top = heap.back();
    heap.pop_back();
    const NodeId u = top.node;
    // Only a strictly better (dist, hops) is pushed, so exactly one entry
    // per node matches its final label; the others are stale.
    if (top.dist != dist[u] || top.hops != hops[u]) continue;
    if (!next.empty() && u != source) {
      next[u] = via[u] == source ? u : next[via[u]];
    }
    const std::uint32_t h = top.hops + 1;
    for (const graph::Edge& e : g.out_edges(u)) {
      const NodeId v = e.to;
      const Weight d = top.dist + e.weight;
      if (d < dist[v] || (d == dist[v] && h < hops[v])) {
        dist[v] = d;
        hops[v] = h;
        via[v] = u;
        heap.push_back({d, h, v});
        std::push_heap(heap.begin(), heap.end(), later);
      } else if (d == dist[v] && h == hops[v] && u < via[v]) {
        via[v] = u;  // same key, smaller parent: the entry stays valid
      }
    }
  }
}

std::vector<std::vector<Weight>> apsp(const Graph& g) {
  std::vector<std::vector<Weight>> d;
  d.reserve(g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    d.push_back(dijkstra(g, s).dist);
  }
  return d;
}

}  // namespace dapsp::seq
