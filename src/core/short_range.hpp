// Algorithm 2: the simplified short-range algorithm of Section II-C and its
// short-range-extension variant.
//
// Single-source streamlining of Algorithm 1: each node keeps only its
// current best (d*, l*) pair for the source and sends it in round
// ceil(d* * gamma + l*).  With the paper's gamma = sqrt(h) each node sends
// at most sqrt(h)+1 messages over the whole execution (the congestion of
// Lemma II.15) and every h-hop shortest distance arrives within
// ceil(Delta*gamma) + h rounds (the dilation).
//
// The extension variant seeds non-source nodes with already-known distances
// (e.g. from a previous phase) and extends them by up to h further hops.
// A multi-source variant applies the same schedule with the Algorithm-1
// gamma = sqrt(h*k/Delta), as sketched at the end of Section II-C.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "core/key.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

struct ShortRangeParams {
  std::vector<NodeId> sources;  ///< k >= 1 sources
  std::uint32_t h = 0;          ///< extension hop budget
  Weight delta = 0;             ///< bound on resulting distances
  /// Key schedule; default at finalize(): paper's sqrt(h) when k == 1,
  /// sqrt(h*k/Delta) otherwise.
  GammaSq gamma{0, 0};
  /// Optional extension seeds: initial[i][v] is the already-known distance
  /// from sources[i] at node v (kInfDist = unknown).  Empty means the plain
  /// short-range initialization (0 at the source only).
  std::vector<std::vector<Weight>> initial;
  congest::RunEnv env{};

  void finalize(const graph::Graph& g);
};

struct ShortRangeResult {
  std::vector<NodeId> sources;
  std::vector<std::vector<Weight>> dist;
  std::vector<std::vector<std::uint32_t>> hops;  ///< extension hops used
  std::vector<std::vector<NodeId>> parent;
  congest::RunStats stats;
  congest::Round settle_round = 0;
  std::uint64_t dilation_bound = 0;    ///< ceil(Delta*gamma) + h
  std::uint64_t congestion_bound = 0;  ///< per-source ceil(h/gamma) + 1
  std::uint64_t max_sends_per_node = 0;
  /// Sends that fired later than their scheduled round (should be 0; the
  /// Lemma II.12-style invariant is validated by tests through this count).
  std::uint64_t late_sends = 0;
};

ShortRangeResult short_range(const graph::Graph& g, ShortRangeParams params);

}  // namespace dapsp::core
