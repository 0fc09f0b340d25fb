#include "query/analytics.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <tuple>

namespace dapsp::query {

using graph::Edge;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using service::DistanceOracle;

Analytics::Analytics(std::shared_ptr<const Graph> g) : g_(std::move(g)) {}

namespace {

std::uint64_t arc_key(NodeId u, NodeId v) {
  return static_cast<std::uint64_t>(u) << 32 | v;
}

/// Constraint filters materialized once per search.
struct Filters {
  std::vector<char> banned_node;
  std::vector<std::uint64_t> banned_arcs;  // sorted

  Filters(const Graph& g, const RouteConstraints& c)
      : banned_node(g.node_count(), 0) {
    for (const NodeId x : c.avoid_nodes) {
      if (x < banned_node.size()) banned_node[x] = 1;
    }
    banned_arcs.reserve(c.avoid_edges.size() * (g.directed() ? 1 : 2));
    for (const auto& [a, b] : c.avoid_edges) {
      banned_arcs.push_back(arc_key(a, b));
      if (!g.directed()) banned_arcs.push_back(arc_key(b, a));
    }
    std::sort(banned_arcs.begin(), banned_arcs.end());
  }

  bool node(NodeId x) const { return banned_node[x] != 0; }
  bool arc(NodeId a, NodeId b) const {
    return std::binary_search(banned_arcs.begin(), banned_arcs.end(),
                              arc_key(a, b));
  }
};

struct RouteLess {
  bool operator()(const Route& a, const Route& b) const {
    return route_less(a, b);
  }
};

}  // namespace

// --- constrained routes ----------------------------------------------------

std::optional<Route> Analytics::constrained_route(
    const DistanceOracle& snap, NodeId u, NodeId v,
    const RouteConstraints& c) const {
  const Graph& g = *g_;
  const NodeId n = g.node_count();
  const Filters f(g, c);
  if (f.node(u) || f.node(v)) return std::nullopt;
  if (u == v) return Route{0, {u}};
  // Dist-row feasibility gate: constraints only remove options, so an
  // unconstrained-unreachable pair is infeasible without any search.
  if (snap.dist(u, v) == kInfDist) return std::nullopt;

  const std::uint32_t cap = n - 1;
  const std::uint32_t h =
      (c.max_hops == 0 || c.max_hops > cap) ? 0 : c.max_hops;

  // Fast path: the closure's canonical path is the canonical answer among
  // *all* shortest paths; when it happens to satisfy the constraints it is
  // also the canonical answer among the feasible ones (the feasible set is
  // a subset that still contains the total-order minimum), so one re-walk
  // replaces the whole search.
  if (auto p = snap.path(u, v)) {
    bool feasible = h == 0 || p->size() - 1 <= h;
    for (std::size_t i = 0; feasible && i < p->size(); ++i) {
      if (f.node((*p)[i])) feasible = false;
      if (feasible && i + 1 < p->size() && f.arc((*p)[i], (*p)[i + 1])) {
        feasible = false;
      }
    }
    if (feasible) return Route{snap.dist(u, v), std::move(*p)};
  }
  return constrained_search(snap, u, v, c);
}

std::optional<Route> Analytics::constrained_search(
    const DistanceOracle& snap, NodeId u, NodeId v,
    const RouteConstraints& c) const {
  const Graph& g = *g_;
  const NodeId n = g.node_count();
  const Filters f(g, c);
  const std::uint32_t cap = n - 1;
  const std::uint32_t h =
      (c.max_hops == 0 || c.max_hops > cap) ? 0 : c.max_hops;
  // Closure pruning: a node that cannot reach v even without constraints
  // can never sit on a feasible route, and (see docs/QUERY.md) dropping it
  // cannot change the canonical parent of any node that survives.
  const auto pruned = [&](NodeId x) { return snap.dist(x, v) == kInfDist; };

  if (h == 0) {
    // No (effective) hop budget: filtered Dijkstra with the repo's
    // (d, l, min-parent-id) rule, stopping as soon as v settles.
    std::vector<Weight> dist(n, kInfDist);
    std::vector<std::uint32_t> hops(n, 0);
    std::vector<NodeId> parent(n, kNoNode);
    std::vector<char> settled(n, 0);
    using Key = std::tuple<Weight, std::uint32_t, NodeId>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> pq;
    dist[u] = 0;
    pq.emplace(0, 0, u);
    while (!pq.empty()) {
      const auto [d, l, x] = pq.top();
      pq.pop();
      if (settled[x] || d != dist[x] || l != hops[x]) continue;
      settled[x] = 1;
      if (x == v) break;
      for (const Edge& e : g.out_edges(x)) {
        const NodeId y = e.to;
        if (f.node(y) || f.arc(x, y) || pruned(y)) continue;
        const Weight nd = d + e.weight;
        const std::uint32_t nl = l + 1;
        if (nd < dist[y] || (nd == dist[y] && nl < hops[y])) {
          dist[y] = nd;
          hops[y] = nl;
          parent[y] = x;
          pq.emplace(nd, nl, y);
        } else if (nd == dist[y] && nl == hops[y] && x < parent[y]) {
          parent[y] = x;
        }
      }
    }
    if (dist[v] == kInfDist) return std::nullopt;
    Route route;
    route.weight = dist[v];
    route.nodes.resize(hops[v] + 1);
    NodeId x = v;
    for (std::size_t i = route.nodes.size(); i-- > 0;) {
      route.nodes[i] = x;
      x = parent[x];
    }
    return route;
  }

  // Hop budget: exact-hop layered relaxation (the reference's recurrence,
  // here pruned by closure reachability).
  const std::size_t layers = static_cast<std::size_t>(h) + 1;
  std::vector<std::vector<Weight>> dist(layers,
                                        std::vector<Weight>(n, kInfDist));
  std::vector<std::vector<NodeId>> parent(layers,
                                          std::vector<NodeId>(n, kNoNode));
  dist[0][u] = 0;
  for (std::size_t j = 1; j < layers; ++j) {
    const auto& prev = dist[j - 1];
    auto& cur = dist[j];
    auto& par = parent[j];
    for (NodeId x = 0; x < n; ++x) {
      if (prev[x] == kInfDist) continue;
      for (const Edge& e : g.out_edges(x)) {
        const NodeId y = e.to;
        if (f.node(y) || f.arc(x, y) || pruned(y)) continue;
        const Weight cand = prev[x] + e.weight;
        if (cand < cur[y]) {
          cur[y] = cand;
          par[y] = x;
        } else if (cand == cur[y] && x < par[y]) {
          par[y] = x;
        }
      }
    }
  }
  Weight best = kInfDist;
  std::size_t best_hops = 0;
  for (std::size_t j = 0; j < layers; ++j) {
    if (dist[j][v] < best) {
      best = dist[j][v];
      best_hops = j;
    }
  }
  if (best == kInfDist) return std::nullopt;
  Route route;
  route.weight = best;
  route.nodes.resize(best_hops + 1);
  NodeId x = v;
  for (std::size_t j = best_hops; j > 0; --j) {
    route.nodes[j] = x;
    x = parent[j][x];
  }
  route.nodes[0] = x;
  return route;
}

// --- k shortest loopless paths ---------------------------------------------

std::vector<Route> Analytics::k_shortest(const DistanceOracle& snap, NodeId u,
                                         NodeId v, std::uint32_t k) const {
  const Graph& g = *g_;
  std::vector<Route> paths;
  if (k == 0) return paths;
  auto first = constrained_route(snap, u, v, RouteConstraints{});
  if (!first) return paths;
  paths.push_back(std::move(*first));

  // Yen's deviation loop, identical in structure (and therefore output) to
  // seq::k_shortest_paths; only the spur search differs -- here it starts
  // with the closure fast path of constrained_route.
  std::set<Route, RouteLess> candidates;
  std::set<std::vector<NodeId>> seen;
  seen.insert(paths.back().nodes);

  while (paths.size() < k) {
    const Route last = paths.back();
    Weight prefix_weight = 0;
    for (std::size_t i = 0; i + 1 < last.nodes.size(); ++i) {
      const NodeId spur = last.nodes[i];
      RouteConstraints c;
      c.avoid_nodes.assign(last.nodes.begin(),
                           last.nodes.begin() + static_cast<std::ptrdiff_t>(i));
      for (const Route& p : paths) {
        if (p.nodes.size() <= i + 1) continue;
        if (!std::equal(p.nodes.begin(),
                        p.nodes.begin() + static_cast<std::ptrdiff_t>(i + 1),
                        last.nodes.begin())) {
          continue;
        }
        c.avoid_edges.emplace_back(p.nodes[i], p.nodes[i + 1]);
      }
      if (auto spur_route = constrained_route(snap, spur, v, c)) {
        Route cand;
        cand.nodes.assign(
            last.nodes.begin(),
            last.nodes.begin() + static_cast<std::ptrdiff_t>(i));
        cand.nodes.insert(cand.nodes.end(), spur_route->nodes.begin(),
                          spur_route->nodes.end());
        cand.weight = prefix_weight + spur_route->weight;
        if (seen.insert(cand.nodes).second) candidates.insert(std::move(cand));
      }
      prefix_weight += *g.arc_weight(last.nodes[i], last.nodes[i + 1]);
    }
    if (candidates.empty()) break;
    paths.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return paths;
}

// --- whole-graph report ----------------------------------------------------

GraphReport Analytics::report(const DistanceOracle& snap,
                              util::ThreadPool& pool) const {
  const NodeId n = snap.node_count();
  GraphReport rep;
  rep.per_source.resize(n);
  // One task per source row; each row is contiguous in the table.
  pool.parallel_for(n, [&](std::size_t s) {
    SourceReport& row = rep.per_source[s];
    const NodeId src = static_cast<NodeId>(s);
    for (NodeId t = 0; t < n; ++t) {
      if (t == src) continue;
      const Weight d = snap.dist(src, t);
      if (d == kInfDist) continue;
      row.eccentricity = std::max(row.eccentricity, d);
      row.farness += d;
      ++row.reached;
    }
  });
  if (n > 0) {
    rep.radius = kInfDist;
    for (const SourceReport& row : rep.per_source) {
      rep.radius = std::min(rep.radius, row.eccentricity);
      rep.diameter = std::max(rep.diameter, row.eccentricity);
      rep.reachable_pairs += row.reached;
    }
  }
  return rep;
}

// --- betweenness centrality ------------------------------------------------

std::vector<double> Analytics::betweenness(const DistanceOracle& snap,
                                           std::uint32_t samples,
                                           util::ThreadPool& pool) const {
  const Graph& g = *g_;
  const NodeId n = snap.node_count();
  const std::vector<NodeId> sources = betweenness_sources(n, samples);
  // Fixed-size chunks reduced in chunk order: the accumulation order of the
  // floating-point scores never depends on the thread count.
  constexpr std::size_t kChunk = 64;
  const std::size_t chunks = (sources.size() + kChunk - 1) / kChunk;
  std::vector<std::vector<double>> partial(chunks);
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  pool.parallel_for(chunks, [&](std::size_t ci) {
    std::vector<double> local(n, 0.0);
    std::vector<Weight> d(n);
    std::vector<std::uint32_t> l(n);
    std::vector<double> sigma(n), delta(n);
    std::vector<NodeId> order, queue;
    order.reserve(n);
    queue.reserve(n);
    const std::size_t lo = ci * kChunk;
    const std::size_t hi = std::min(lo + kChunk, sources.size());
    for (std::size_t si = lo; si < hi; ++si) {
      const NodeId s = sources[si];
      for (NodeId x = 0; x < n; ++x) d[x] = snap.dist(s, x);
      // Recover l(s, .) -- the minimum hop count among minimum-weight
      // paths -- as BFS depth over tight arcs (d[x] + w == d[y]): with
      // non-negative weights every prefix of a shortest path is shortest,
      // so tight paths are exactly the shortest paths.
      std::fill(l.begin(), l.end(), kUnset);
      l[s] = 0;
      queue.clear();
      queue.push_back(s);
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const NodeId x = queue[qi];
        for (const Edge& e : g.out_edges(x)) {
          if (l[e.to] != kUnset || d[e.to] == kInfDist) continue;
          if (d[x] + e.weight != d[e.to]) continue;
          l[e.to] = l[x] + 1;
          queue.push_back(e.to);
        }
      }
      order.clear();
      for (NodeId x = 0; x < n; ++x) {
        if (d[x] != kInfDist) order.push_back(x);
      }
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        if (d[a] != d[b]) return d[a] < d[b];
        if (l[a] != l[b]) return l[a] < l[b];
        return a < b;
      });
      std::fill(sigma.begin(), sigma.end(), 0.0);
      std::fill(delta.begin(), delta.end(), 0.0);
      sigma[s] = 1.0;
      const auto dag_arc = [&](NodeId x, const Edge& e) {
        return d[e.to] != kInfDist && d[x] + e.weight == d[e.to] &&
               l[x] + 1 == l[e.to];
      };
      for (const NodeId x : order) {
        NodeId prev_to = kNoNode;
        for (const Edge& e : g.out_edges(x)) {
          if (e.to == prev_to) continue;
          if (!dag_arc(x, e)) continue;
          prev_to = e.to;
          sigma[e.to] += sigma[x];
        }
      }
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId x = *it;
        NodeId prev_to = kNoNode;
        for (const Edge& e : g.out_edges(x)) {
          if (e.to == prev_to) continue;
          if (!dag_arc(x, e)) continue;
          prev_to = e.to;
          delta[x] += sigma[x] / sigma[e.to] * (1.0 + delta[e.to]);
        }
        if (x != s) local[x] += delta[x];
      }
    }
    partial[ci] = std::move(local);
  });
  std::vector<double> bc(n, 0.0);
  for (const std::vector<double>& part : partial) {
    for (NodeId x = 0; x < n; ++x) bc[x] += part[x];
  }
  return bc;
}

}  // namespace dapsp::query
