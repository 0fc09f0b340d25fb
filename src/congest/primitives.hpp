// Distributed building blocks used by the composite algorithms (Alg. 3):
// BFS spanning tree construction, pipelined broadcast, convergecast max, and
// gather-to-all.  Each primitive runs its own engine over the communication
// graph and returns results plus the rounds consumed, so drivers can chain
// phases and add up stats exactly as the paper composes its steps.  Each
// takes the caller's RunEnv and hands it to its engine.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"

namespace dapsp::congest {

/// Rooted BFS spanning tree of the communication graph.
struct BfsTree {
  NodeId root = 0;
  std::vector<NodeId> parent;               ///< kNoNode for root / unreached
  std::vector<std::uint32_t> depth;         ///< hop depth; 0 at root
  std::vector<std::vector<NodeId>> children;
  std::uint32_t height = 0;

  bool reached(NodeId v) const {
    return v == root || parent[v] != graph::kNoNode;
  }
};

/// Builds a BFS tree from `root` by flooding; O(D) rounds.  If `stats` is
/// non-null the phase's rounds/messages are accumulated into it.
BfsTree build_bfs_tree(const graph::Graph& g, NodeId root,
                       RunStats* stats = nullptr, const RunEnv& env = {});

/// Pipelined broadcast of `values` (held by the root) down `tree`; every node
/// ends up with the full vector, in |values| + height + O(1) rounds.
/// Returns the per-node received copies (index 0 is the root's own copy).
std::vector<std::vector<std::int64_t>> broadcast_values(
    const graph::Graph& g, const BfsTree& tree,
    const std::vector<std::int64_t>& values, RunStats* stats = nullptr,
    const RunEnv& env = {});

/// Convergecast maximum: each node contributes (value, id); the root learns
/// the maximum value and the smallest id achieving it, in height + O(1)
/// rounds.  Ties on value break toward the smaller node id.
std::pair<std::int64_t, NodeId> converge_max(
    const graph::Graph& g, const BfsTree& tree,
    const std::vector<std::int64_t>& value_per_node,
    RunStats* stats = nullptr, const RunEnv& env = {});

/// Gathers every node's items to the root (pipelined up the tree) and then
/// broadcasts the concatenation to everyone: each node ends with the full
/// item list, sorted by (origin, payload).  Items are (origin, a, b) triples,
/// distinct across nodes: a node keeps one copy of an item its children
/// send twice, as a duplicating fault plan may deliver it.
/// Rounds: O(total_items + height).
struct GatherItem {
  NodeId origin = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;

  friend auto operator<=>(const GatherItem&, const GatherItem&) = default;
};
std::vector<GatherItem> gather_to_all(
    const graph::Graph& g, const BfsTree& tree,
    const std::vector<std::vector<GatherItem>>& items_per_node,
    RunStats* stats = nullptr, const RunEnv& env = {});

}  // namespace dapsp::congest
