// Blocker set computation (Section III-B of the paper; Definition III.1).
//
// Given an h-hop CSSSP collection, a blocker set Q hits every root-to-leaf
// path of length exactly h in every tree.  The algorithm is the greedy one
// from [3] with the paper's two improvements:
//  * initial scores (per-tree counts of depth-h descendants) are computed by
//    a pipelined convergecast in h + k rounds instead of O(n*h),
//  * descendant score updates after picking a blocker use the pipelined
//    Algorithm 4 (k + h - 1 rounds), relying on the CSSSP property that the
//    subtrees below the chosen node coincide across trees (Lemma III.6).
// Ancestor updates pipeline along the in-tree of Lemma III.7.  Because both
// update phases lean on CSSSP consistency for collision-freedom, the engine's
// per-link congestion stats double as an empirical check of those lemmas
// (tests assert max congestion 1).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "congest/primitives.hpp"
#include "core/cssp.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

/// scores[v][i] = number of depth-h descendants of v in tree i (v included
/// when its own depth is h).  Node-major: row v is node v's local state.
using ScoreMatrix = std::vector<std::vector<std::uint64_t>>;

/// Phase A: distributed pipelined score initialization (h + k + 1 rounds).
ScoreMatrix init_scores_distributed(const graph::Graph& g,
                                    const CsspCollection& cssp,
                                    congest::RunStats* stats,
                                    const congest::RunEnv& env = {});

/// Sequential oracle for the same quantity (tests).
ScoreMatrix init_scores_sequential(const CsspCollection& cssp);

struct BlockerSetResult {
  std::vector<NodeId> blockers;
  congest::RunStats stats;
  std::uint64_t size_bound = 0;  ///< (n ln n)/h-style greedy guarantee
  /// Max per-link per-round congestion seen inside the ancestor/descendant
  /// update phases; 1 when the CSSSP staggering argument holds.
  std::uint64_t update_congestion = 0;
  /// Longest single ancestor/descendant update phase (Lemma III.8 bounds the
  /// descendant phase by k + h - 1 rounds).
  congest::Round max_update_phase_rounds = 0;
  std::uint64_t score_init_rounds = 0;
};

/// Greedy blocker set over the CSSSP collection.  Runs entirely as CONGEST
/// phases (score init, convergecast max, broadcast, pipelined updates).
BlockerSetResult compute_blocker_set(const graph::Graph& g,
                                     const CsspCollection& cssp,
                                     const congest::RunEnv& env = {});

/// Sequential validation: true iff every depth-h leaf's root path contains a
/// blocker (Definition III.1).
bool covers_all_h_paths(const CsspCollection& cssp,
                        const std::vector<NodeId>& blockers);

}  // namespace dapsp::core
