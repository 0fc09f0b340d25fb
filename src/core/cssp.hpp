// Consistent h-hop shortest-path tree collections (CSSSP, Section III-A).
//
// Plain h-hop shortest-path parent pointers need not form trees of height h
// (the prefix of an h-hop shortest path need not be an h-hop shortest path;
// see Figure 1 of the paper and graph::fig1_gadget).  The paper's fix is
// simple: run Algorithm 1 with hop bound 2h and keep only the first h hops
// of each tree, i.e. drop a node from tree T_x when its min-hop count
// exceeds h (Lemma III.4).  The result is a collection where the tree path
// between any two nodes is the same in every tree containing both.
//
// The collection also carries per-tree children lists, computed by a real
// k-round notification protocol (each node tells its tree-i parent "I am
// your child" in round i), because the blocker-set algorithms forward
// messages to tree children.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

struct CsspCollection {
  std::uint32_t h = 0;
  std::vector<NodeId> sources;

  /// Full 2h-hop results of the underlying Algorithm-1 run (useful to the
  /// Algorithm-3 combine step).
  std::vector<std::vector<Weight>> dist2h;
  std::vector<std::vector<std::uint32_t>> hops2h;
  std::vector<std::vector<NodeId>> parent2h;

  /// Truncated h-hop trees: parent[i][v] is v's parent in T_{sources[i]} or
  /// kNoNode when v is not in that tree.  depth[i][v] <= h when present.
  std::vector<std::vector<NodeId>> parent;
  std::vector<std::vector<std::uint32_t>> depth;
  std::vector<std::vector<Weight>> dist;  ///< tree distance for present nodes

  /// children[i][v]: v's children in T_{sources[i]} (sorted).
  std::vector<std::vector<std::vector<NodeId>>> children;

  congest::RunStats stats;
  std::uint64_t theoretical_bound = 0;

  bool in_tree(std::size_t i, NodeId v) const {
    return v == sources[i] || parent[i][v] != graph::kNoNode;
  }
};

/// Builds an h-hop CSSSP collection for `sources`.  `delta2h` must bound the
/// 2h-hop shortest path distances (e.g. 2h*W, or the exact value from
/// graph::max_finite_hop_distance).
CsspCollection build_cssp(const graph::Graph& g,
                          const std::vector<NodeId>& sources, std::uint32_t h,
                          Weight delta2h, const congest::RunEnv& env = {});

}  // namespace dapsp::core
