#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace dapsp::graph {

namespace {
constexpr std::uint64_t pack(NodeId u, NodeId v) noexcept {
  return (std::uint64_t{u} << 32) | v;
}
}  // namespace

std::optional<Weight> Graph::arc_weight(NodeId u, NodeId v) const noexcept {
  std::optional<Weight> best;
  for (const Edge& e : out_edges(u)) {
    if (e.to == v && (!best || e.weight < *best)) best = e.weight;
  }
  return best;
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v, Weight w) {
  if (u >= n_ || v >= n_) throw std::logic_error("add_edge: node id out of range");
  if (u == v) throw std::logic_error("add_edge: self-loops are not allowed");
  if (w < 0) throw std::logic_error("add_edge: negative weight");
  if (w > max_edge_weight(n_)) {
    throw std::logic_error("add_edge: weight too large, (n - 1) * w >= kInfDist");
  }
  arcs_.push_back({u, v, w});
  arc_keys_.insert(pack(u, v));
  if (!directed_) {
    arcs_.push_back({v, u, w});
    arc_keys_.insert(pack(v, u));
  }
  return *this;
}

bool GraphBuilder::has_arc(NodeId u, NodeId v) const noexcept {
  return arc_keys_.contains(pack(u, v));
}

Graph GraphBuilder::build() && {
  Graph g;
  g.n_ = n_;
  g.directed_ = directed_;
  g.edges_ = std::move(arcs_);

  std::sort(g.edges_.begin(), g.edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.from, a.to, a.weight) < std::tie(b.from, b.to, b.weight);
  });

  g.out_offsets_.assign(n_ + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.out_offsets_[e.from + 1];
    g.max_weight_ = std::max(g.max_weight_, e.weight);
  }
  for (NodeId v = 0; v < n_; ++v) g.out_offsets_[v + 1] += g.out_offsets_[v];

  g.in_edges_ = g.edges_;
  std::sort(g.in_edges_.begin(), g.in_edges_.end(),
            [](const Edge& a, const Edge& b) {
              return std::tie(a.to, a.from, a.weight) <
                     std::tie(b.to, b.from, b.weight);
            });
  g.in_offsets_.assign(n_ + 1, 0);
  for (const Edge& e : g.in_edges_) ++g.in_offsets_[e.to + 1];
  for (NodeId v = 0; v < n_; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];

  // Communication graph: union of {u,v} over all arcs, deduplicated.
  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(g.edges_.size() * 2);
  for (const Edge& e : g.edges_) {
    links.emplace_back(e.from, e.to);
    links.emplace_back(e.to, e.from);
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());

  g.comm_offsets_.assign(n_ + 1, 0);
  g.comm_adj_.reserve(links.size());
  for (const auto& [u, v] : links) {
    ++g.comm_offsets_[u + 1];
    g.comm_adj_.push_back(v);
  }
  for (NodeId v = 0; v < n_; ++v) g.comm_offsets_[v + 1] += g.comm_offsets_[v];

  return g;
}

}  // namespace dapsp::graph
