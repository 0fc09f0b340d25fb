// Sequential Dijkstra oracle (non-negative weights, zero allowed).
//
// Serves as ground truth for every distributed algorithm's distances, and
// supplies the (distance, hop) lexicographic tie-breaking the paper's
// algorithms use: among equal-distance paths the fewest-hop one wins, and
// among equal (d, l) the smaller parent id wins, making parents unique.
//
// `dijkstra` is the slow reference.  `dijkstra_row` is the closure
// builders' kernel: the same labels, computed without per-pop allocation
// and written straight into caller-owned rows.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dapsp::seq {

struct SsspResult {
  std::vector<graph::Weight> dist;   ///< kInfDist when unreachable
  std::vector<std::uint32_t> hops;   ///< hop count of the (d,l)-minimal path
  std::vector<graph::NodeId> parent; ///< kNoNode for source/unreachable
};

/// Shortest paths from `source` following out-edges.
SsspResult dijkstra(const graph::Graph& g, graph::NodeId source);

/// Shortest paths *into* `target` following in-edges (distances v -> target).
SsspResult dijkstra_reverse(const graph::Graph& g, graph::NodeId target);

/// Scratch of dijkstra_row (hop counts, parents, heap), grown on demand and
/// reused across calls so that a sweep over every source allocates once.
/// One workspace serves one thread at a time.
struct RowWorkspace {
  struct Entry {
    graph::Weight dist;
    std::uint32_t hops;
    graph::NodeId node;
  };
  std::vector<std::uint32_t> hops;
  std::vector<graph::NodeId> via;
  std::vector<Entry> heap;
};

/// One source's row of the canonical closure: dist[v] = dist(source, v)
/// (kInfDist when unreachable) and, unless `next` is empty, next[v] = the
/// first hop of the (d, l, min-parent)-canonical path source -> v (kNoNode
/// for the source and unreachable v).  Both spans hold node_count()
/// entries and are overwritten (std::logic_error otherwise).  The labels
/// equal dijkstra()'s, and next equals what service::make_oracle derives
/// from its parents.
///
/// A label is pushed only when it improves, and a node takes its first hop
/// when it settles: its parent's label is strictly smaller in (d, l), so
/// the parent settled first.
void dijkstra_row(const graph::Graph& g, graph::NodeId source,
                  std::span<graph::Weight> dist, std::span<graph::NodeId> next,
                  RowWorkspace& ws);

/// All-pairs matrix: result[s][v] = dist(s, v).  Runs n Dijkstras.
std::vector<std::vector<graph::Weight>> apsp(const graph::Graph& g);

}  // namespace dapsp::seq
