// Weighted graph representation shared by the sequential oracles and the
// CONGEST simulator.
//
// Graphs may be directed or undirected.  Edge weights are non-negative
// integers; zero weights are first-class citizens (they are the entire point
// of the paper).  For a directed graph the *communication* network is the
// underlying undirected graph (CONGEST model, Sec. I-B of the paper), which
// `Graph` exposes through the `comm_*` accessors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace dapsp::graph {

using NodeId = std::uint32_t;
using Weight = std::int64_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr Weight kInfDist = static_cast<Weight>(1) << 60;

/// Largest edge weight a graph on n nodes may carry: (n - 1) * w stays
/// below kInfDist, so every simple path is shorter than kInfDist and no
/// path sum overflows Weight.
constexpr Weight max_edge_weight(NodeId n) noexcept {
  return n < 2 ? kInfDist - 1 : (kInfDist - 1) / static_cast<Weight>(n - 1);
}

/// A directed arc u -> v with non-negative weight w.
struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  Weight weight = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable-after-build weighted graph in CSR form.
///
/// Build with `GraphBuilder`; the finished graph provides
///  * `out_edges(v)` / `in_edges(v)`      — directed adjacency,
///  * `comm_neighbors(v)`                 — undirected communication links,
/// all as contiguous spans.
class Graph {
 public:
  Graph() = default;

  bool directed() const noexcept { return directed_; }
  NodeId node_count() const noexcept { return n_; }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  /// All directed arcs (for an undirected graph each input edge appears as
  /// two arcs).
  std::span<const Edge> edges() const noexcept { return edges_; }

  std::span<const Edge> out_edges(NodeId v) const noexcept {
    return {edges_.data() + out_offsets_[v],
            edges_.data() + out_offsets_[v + 1]};
  }

  /// Incoming arcs of v, materialized as Edge{from,to=v,w}.
  std::span<const Edge> in_edges(NodeId v) const noexcept {
    return {in_edges_.data() + in_offsets_[v],
            in_edges_.data() + in_offsets_[v + 1]};
  }

  /// Neighbors over the underlying undirected communication graph, sorted
  /// ascending and deduplicated.  Every CONGEST message travels along one of
  /// these links.
  std::span<const NodeId> comm_neighbors(NodeId v) const noexcept {
    return {comm_adj_.data() + comm_offsets_[v],
            comm_adj_.data() + comm_offsets_[v + 1]};
  }

  std::size_t comm_degree(NodeId v) const noexcept {
    return comm_offsets_[v + 1] - comm_offsets_[v];
  }

  /// Number of undirected communication links.
  std::size_t comm_edge_count() const noexcept { return comm_adj_.size() / 2; }

  /// Weight of arc u->v, or nullopt if absent.  If parallel arcs exist the
  /// minimum weight is returned (parallel arcs are allowed by the builder but
  /// never produced by the generators).
  std::optional<Weight> arc_weight(NodeId u, NodeId v) const noexcept;

  /// Largest edge weight W (0 for an edgeless graph).
  Weight max_weight() const noexcept { return max_weight_; }

 private:
  friend class GraphBuilder;

  NodeId n_ = 0;
  bool directed_ = false;
  Weight max_weight_ = 0;
  std::vector<Edge> edges_;              // sorted by (from, to)
  std::vector<std::size_t> out_offsets_; // size n_+1
  std::vector<Edge> in_edges_;           // sorted by (to, from)
  std::vector<std::size_t> in_offsets_;  // size n_+1
  std::vector<NodeId> comm_adj_;         // undirected adjacency
  std::vector<std::size_t> comm_offsets_;
};

/// Accumulates edges, then `build()`s the CSR graph.  For an undirected
/// graph, `add_edge(u,v,w)` creates both arcs.
class GraphBuilder {
 public:
  /// Throws std::logic_error for n = kNoNode: n + 1 CSR offsets would wrap.
  GraphBuilder(NodeId n, bool directed) : n_(n), directed_(directed) {
    if (n == kNoNode) throw std::logic_error("GraphBuilder: too many nodes");
  }

  NodeId node_count() const noexcept { return n_; }
  bool directed() const noexcept { return directed_; }

  /// Adds edge u->v (and v->u when undirected).  Self-loops are rejected:
  /// they never participate in shortest paths and would create degenerate
  /// communication links.  So are weights outside [0, max_edge_weight(n)].
  /// Throws std::logic_error on bad input.
  GraphBuilder& add_edge(NodeId u, NodeId v, Weight w);

  /// True if arc u->v was already added (O(1); used by generators to avoid
  /// parallel edges).
  bool has_arc(NodeId u, NodeId v) const noexcept;

  std::size_t pending_edge_count() const noexcept { return arcs_.size(); }

  Graph build() &&;

 private:
  NodeId n_;
  bool directed_;
  std::vector<Edge> arcs_;
  std::unordered_set<std::uint64_t> arc_keys_;
};

}  // namespace dapsp::graph
