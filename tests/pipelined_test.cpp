// Tests for Algorithm 1, the pipelined (h,k)-SSP algorithm.  The oracle is
// the sequential hop-limited DP; every sweep checks distances, hop counts,
// the Lemma II.14 round bound, and the Invariant-2 list occupancy bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/bounds.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"
#include "seq/hop_limited.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::WeightSpec;

/// Validates one Algorithm-1 run against the paper's guarantee
/// (Lemma II.13): for every pair whose *true* shortest path is achievable
/// within h hops ("in scope" -- the CSSSP tree-membership condition), the
/// exact distance and min-hop count must be computed; for other pairs the
/// value is only required to be a sound over-estimate (the weight of some
/// <= h-hop walk, hence >= the h-hop optimum) or infinity.
void check_against_oracle(const Graph& g, const KsspResult& res,
                          std::uint32_t h, const std::string& label) {
  SCOPED_TRACE(label);
  // Note: the run may stop at the Lemma II.14 round budget with non-SP
  // stragglers still scheduled -- that is the algorithm's designed
  // termination, so hit_round_limit is not an error here.
  for (std::size_t i = 0; i < res.sources.size(); ++i) {
    const auto dj = seq::dijkstra(g, res.sources[i]);
    const auto hop = seq::hop_limited_sssp(g, res.sources[i], h);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const bool in_scope = dj.dist[v] != kInfDist && dj.hops[v] <= h;
      if (in_scope) {
        ASSERT_EQ(res.dist[i][v], dj.dist[v])
            << "source " << res.sources[i] << " node " << v;
        EXPECT_EQ(res.hops[i][v], dj.hops[v])
            << "source " << res.sources[i] << " node " << v;
        if (v != res.sources[i]) {
          // Parent must be a real predecessor over an existing arc.
          const NodeId p = res.parent[i][v];
          ASSERT_NE(p, kNoNode);
          EXPECT_TRUE(g.arc_weight(p, v).has_value());
        }
      } else {
        // Sound over-estimate: never below the h-hop optimum.
        EXPECT_TRUE(res.dist[i][v] == kInfDist ||
                    res.dist[i][v] >= hop.dist[v])
            << "source " << res.sources[i] << " node " << v;
      }
    }
  }
  // Lemma II.14: everything settles within the theoretical bound.
  EXPECT_LE(res.settle_round, res.theoretical_bound) << label;
}

/// Invariant 2 (Lemma II.11): per-source list occupancy <= h/gamma + 1.
/// The literal INSERT policy respects the cap exactly; the delivery-safe
/// dominance default keeps extra non-dominated entries and is held to a 2x
/// envelope (measured; see DESIGN.md note 3).
void check_invariant2(const KsspResult& res, std::uint32_t h,
                      std::uint64_t k, Weight delta, ListPolicy policy) {
  const GammaSq gamma = GammaSq::paper(k, h, static_cast<std::uint64_t>(delta));
  const std::uint64_t cap =
      gamma.num == 0
          ? h + 1
          : util::ceil_mul_sqrt(h, gamma.den, gamma.num) + 1;
  if (policy == ListPolicy::kLiteral) {
    EXPECT_LE(res.max_entries_per_source, cap);
  } else {
    EXPECT_LE(res.max_entries_per_source, 2 * cap + 2);
  }
}

struct SweepCase {
  NodeId n;
  double p;
  WeightSpec w;
  bool directed;
  std::uint32_t h;
  std::uint32_t k;
  std::uint64_t seed;
};

class PipelinedSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelinedSweep, MatchesHopLimitedOracle) {
  const SweepCase& c = GetParam();
  const Graph g = graph::erdos_renyi(c.n, c.p, c.w, c.seed, c.directed);

  PipelinedParams params;
  for (std::uint32_t i = 0; i < c.k; ++i) {
    params.sources.push_back((i * 7) % c.n);
  }
  params.h = c.h;
  params.delta = graph::max_finite_hop_distance(g, c.h);

  for (const ListPolicy policy :
       {ListPolicy::kDominance, ListPolicy::kLiteral}) {
    params.policy = policy;
    const KsspResult res = pipelined_kssp(g, params);
    check_against_oracle(g, res, c.h,
                         policy == ListPolicy::kLiteral ? "literal" : "dom");
    check_invariant2(res, c.h, res.sources.size(), params.delta, policy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PipelinedSweep,
    ::testing::Values(
        // Undirected, small weights.
        SweepCase{20, 0.15, {0, 4, 0.0}, false, 5, 4, 1},
        SweepCase{24, 0.12, {0, 8, 0.0}, false, 8, 6, 2},
        // Zero-heavy weights (the regime prior work could not handle).
        SweepCase{20, 0.2, {0, 3, 0.5}, false, 6, 5, 3},
        SweepCase{26, 0.15, {0, 1, 0.8}, false, 10, 8, 4},
        SweepCase{22, 0.2, {0, 0, 0.0}, false, 6, 5, 5},  // all-zero weights
        // Directed.
        SweepCase{20, 0.15, {0, 5, 0.2}, true, 6, 5, 6},
        SweepCase{24, 0.1, {0, 6, 0.3}, true, 9, 7, 7},
        SweepCase{18, 0.25, {0, 7, 0.1}, true, 4, 18, 8},  // k = n
        // Larger weights.
        SweepCase{20, 0.15, {1, 30, 0.0}, false, 6, 5, 9},
        SweepCase{20, 0.15, {0, 50, 0.3}, true, 7, 6, 10},
        // Single source.
        SweepCase{28, 0.12, {0, 6, 0.3}, false, 8, 1, 11},
        // h = 1 edge case.
        SweepCase{16, 0.3, {0, 5, 0.2}, false, 1, 4, 12},
        // h larger than any path.
        SweepCase{14, 0.25, {0, 4, 0.2}, false, 40, 5, 13}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      const SweepCase& c = param_info.param;
      return "n" + std::to_string(c.n) + (c.directed ? "d" : "u") + "h" +
             std::to_string(c.h) + "k" + std::to_string(c.k) + "s" +
             std::to_string(c.seed);
    });

TEST(Pipelined, StructuredTopologies) {
  const WeightSpec w{0, 5, 0.3};
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    check_against_oracle(
        graph::grid(4, 5, w, seed),
        [&] {
          const Graph g = graph::grid(4, 5, w, seed);
          PipelinedParams p;
          p.sources = {0, 7, 19};
          p.h = 6;
          p.delta = graph::max_finite_hop_distance(g, 6);
          return pipelined_kssp(g, p);
        }(),
        6, "grid seed " + std::to_string(seed));
  }
  {
    const Graph g = graph::cycle(12, w, 3);
    PipelinedParams p;
    p.sources = {0, 5};
    p.h = 11;
    p.delta = graph::max_finite_hop_distance(g, 11);
    check_against_oracle(g, pipelined_kssp(g, p), 11, "cycle");
  }
  {
    const Graph g = graph::star(10, w, 4);
    PipelinedParams p;
    p.sources = {0, 1, 9};
    p.h = 2;
    p.delta = graph::max_finite_hop_distance(g, 2);
    check_against_oracle(g, pipelined_kssp(g, p), 2, "star");
  }
}

TEST(Pipelined, Fig1GadgetZeroChains) {
  // The gadget that defeats naive h-hop tree constructions; Algorithm 1 must
  // still produce correct h-hop distances on it.
  for (const std::uint32_t h : {2u, 3u, 4u, 6u}) {
    const Graph g = graph::fig1_gadget(4);
    PipelinedParams p;
    for (NodeId v = 0; v < g.node_count(); ++v) p.sources.push_back(v);
    p.h = h;
    p.delta = graph::max_finite_hop_distance(g, h);
    check_against_oracle(g, pipelined_kssp(g, p), h,
                         "fig1 h=" + std::to_string(h));
  }
}

TEST(Pipelined, ApspDriverMatchesDijkstra) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const Graph g = graph::erdos_renyi(18, 0.2, {0, 6, 0.3}, seed,
                                       seed % 2 == 0);
    const Weight delta = graph::max_finite_distance(g);
    const KsspResult res = pipelined_apsp(g, delta);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const auto dj = seq::dijkstra(g, s);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(res.dist[s][v], dj.dist[v])
            << "seed " << seed << " pair " << s << "->" << v;
      }
    }
    // Theorem I.1(ii): within 2n*sqrt(Delta) + 2n rounds.
    EXPECT_LE(res.settle_round,
              bounds::apsp_pipelined(g.node_count(),
                                     static_cast<std::uint64_t>(delta)));
  }
}

TEST(Pipelined, UnreachableNodesStayInfinite) {
  GraphBuilder b(6, /*directed=*/true);
  b.add_edge(0, 1, 2).add_edge(1, 2, 0).add_edge(3, 4, 1);
  const Graph g = std::move(b).build();
  PipelinedParams p;
  p.sources = {0, 3};
  p.h = 5;
  p.delta = 3;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][2], 2);
  EXPECT_EQ(res.dist[0][3], kInfDist);
  EXPECT_EQ(res.dist[0][5], kInfDist);
  EXPECT_EQ(res.dist[1][4], 1);
  EXPECT_EQ(res.dist[1][0], kInfDist);
}

TEST(Pipelined, OutOfScopePairsAreSoundOverestimates) {
  // 0 -> 1 -> 2 -> 3 all weight 0 (3 hops), plus a direct 0 -> 3 of weight 9.
  // With h = 1 only the expensive edge is in budget; with h = 3 the zero
  // route wins.  The h=1 value for (0,3) is a sound over-estimate of the
  // true distance 0 (whose min-hop path needs 3 hops -- out of scope).
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 0).add_edge(0, 3, 9);
  const Graph g = std::move(b).build();
  for (const std::uint32_t h : {1u, 3u}) {
    PipelinedParams p;
    p.sources = {0};
    p.h = h;
    p.delta = 9;
    const KsspResult res = pipelined_kssp(g, p);
    if (h == 1) {
      EXPECT_EQ(res.dist[0][3], 9);  // only the direct edge fits one hop
    } else {
      EXPECT_EQ(res.dist[0][3], 0);
      EXPECT_EQ(res.hops[0][3], 3u);
    }
  }
}

TEST(Pipelined, LiteralPolicySweep) {
  // The word-for-word INSERT transcription must satisfy the same guarantee.
  for (std::uint64_t seed = 70; seed < 76; ++seed) {
    const Graph g = graph::erdos_renyi(20, 0.18, {0, 5, 0.3}, seed,
                                       seed % 2 == 0);
    PipelinedParams p;
    p.sources = {0, 3, 6, 9, 12};
    p.h = 6;
    p.delta = graph::max_finite_hop_distance(g, 6);
    p.policy = ListPolicy::kLiteral;
    check_against_oracle(g, pipelined_kssp(g, p), 6,
                         "literal seed " + std::to_string(seed));
  }
}

TEST(Pipelined, DirectedArcsOnlyUsedInArcDirection) {
  // 0 -> 1 -> 2 directed path: node 0 must not be reachable from 2 even
  // though communication links are bidirectional.
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 1).add_edge(1, 2, 1);
  const Graph g = std::move(b).build();
  PipelinedParams p;
  p.sources = {2};
  p.h = 2;
  p.delta = 2;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][0], kInfDist);
  EXPECT_EQ(res.dist[0][1], kInfDist);
  EXPECT_EQ(res.dist[0][2], 0);
}

TEST(Pipelined, GammaAblationsStillExact) {
  // The paper's gamma choice only affects the round bound, never
  // correctness; unit-gamma keys must give identical distances.
  const Graph g = graph::erdos_renyi(18, 0.18, {0, 5, 0.3}, 42);
  const std::uint32_t h = 6;
  const Weight delta = graph::max_finite_hop_distance(g, h);

  for (const GammaSq gamma : {GammaSq::unit(), GammaSq{4, 1}, GammaSq{1, 9}}) {
    PipelinedParams p;
    p.sources = {0, 3, 6, 9};
    p.h = h;
    p.delta = delta;
    p.gamma = gamma;
    const KsspResult res = pipelined_kssp(g, p);
    SCOPED_TRACE("gamma^2 = " + std::to_string(gamma.num) + "/" +
                 std::to_string(gamma.den));
    for (std::size_t i = 0; i < res.sources.size(); ++i) {
      const auto dj = seq::dijkstra(g, res.sources[i]);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (dj.dist[v] != kInfDist && dj.hops[v] <= h) {
          ASSERT_EQ(res.dist[i][v], dj.dist[v]);
        }
      }
    }
  }
}

TEST(Pipelined, SelfSourceTrivia) {
  const Graph g = graph::path(4, {2, 2, 0.0}, 50);
  PipelinedParams p;
  p.sources = {1};
  p.h = 3;
  p.delta = 4;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][1], 0);
  EXPECT_EQ(res.hops[0][1], 0u);
  EXPECT_EQ(res.parent[0][1], kNoNode);
}

TEST(Pipelined, KsspFullMatchesDijkstra) {
  // Theorem I.1(iii): full k-SSP (h = n-1) is exact for every pair.
  for (std::uint64_t seed = 80; seed < 83; ++seed) {
    const Graph g = graph::erdos_renyi(20, 0.18, {0, 6, 0.3}, seed,
                                       seed % 2 == 1);
    const Weight delta = graph::max_finite_distance(g);
    const KsspResult res = pipelined_kssp_full(g, {1, 5, 9, 13}, delta);
    for (std::size_t i = 0; i < res.sources.size(); ++i) {
      const auto dj = seq::dijkstra(g, res.sources[i]);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_EQ(res.dist[i][v], dj.dist[v]) << "seed " << seed;
      }
    }
    // Theorem I.1(iii) bound: 2*sqrt(n*k*Delta) + n + k.
    EXPECT_LE(res.settle_round,
              bounds::k_ssp_pipelined(g.node_count(), 4,
                                      static_cast<std::uint64_t>(delta)));
  }
}

TEST(Pipelined, ParamValidation) {
  const Graph g = graph::path(4, {1, 1, 0.0}, 51);
  PipelinedParams p;
  p.h = 2;
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // no sources
  p.sources = {9};
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // out of range
  p.sources = {0};
  p.h = 0;
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // h == 0
}

TEST(Pipelined, DuplicateSourcesDeduplicated) {
  const Graph g = graph::path(5, {1, 1, 0.0}, 52);
  PipelinedParams p;
  p.sources = {2, 2, 0, 2};
  p.h = 4;
  p.delta = 4;
  const KsspResult res = pipelined_kssp(g, p);
  ASSERT_EQ(res.sources.size(), 2u);
  EXPECT_EQ(res.sources[0], 0u);
  EXPECT_EQ(res.sources[1], 2u);
}

TEST(Pipelined, PerSourceSendsTrackListOccupancy) {
  // A node emits at most one message per list entry per schedule value, so
  // per-source sends stay near the per-source occupancy bound.
  const Graph g = graph::erdos_renyi(24, 0.15, {0, 6, 0.3}, 61);
  PipelinedParams p;
  for (NodeId v = 0; v < 24; v += 2) p.sources.push_back(v);
  p.h = 8;
  p.delta = graph::max_finite_hop_distance(g, 8);
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_GT(res.max_sends_per_source, 0u);
  // Refires (schedule shifts) can add a constant factor; 4x occupancy is a
  // conservative ceiling that catches runaway resend loops.
  EXPECT_LE(res.max_sends_per_source, 4 * (res.max_entries_per_source + 1));
}

TEST(Pipelined, MessageCongestionIsModest) {
  // At most one entry fires per node per round (schedules strictly
  // increase), so per-link congestion should be exactly 1.
  const Graph g = graph::erdos_renyi(24, 0.15, {0, 6, 0.3}, 60);
  PipelinedParams p;
  p.sources = {0, 4, 8, 12, 16, 20};
  p.h = 8;
  p.delta = graph::max_finite_hop_distance(g, 8);
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.stats.max_link_congestion, 1u);
}

// --- Golden schedule ---------------------------------------------------
//
// The sweeps above check distances and bounds; these cases pin Algorithm
// 1's exact behaviour: every send, its round and its payload show up in
// the counts below, and the distance/hop/parent rows in the digest.  List
// maintenance may be rewritten for speed, but a rewrite that changes any
// of these numbers changes the algorithm.  The expected values were
// captured by running these cases on the list-scanning implementation
// that preceded the per-source index, and must repeat exactly.

/// Everything one run of Algorithm 1 observably produces.
struct Golden {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t message_bytes;
  std::uint64_t max_link_congestion;
  std::uint64_t settle_round;
  std::uint64_t max_list_size;
  std::uint64_t max_entries_per_source;
  std::uint64_t late_fires;
  std::uint64_t total_sends;
  std::uint64_t max_sends_per_source;
  std::uint64_t digest;  ///< FNV-1a 64 over dist, hops, parent rows

  friend bool operator==(const Golden&, const Golden&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Golden& v) {
    return os << '{' << v.rounds << ", " << v.messages << ", "
              << v.message_bytes << ", " << v.max_link_congestion << ", "
              << v.settle_round << ", " << v.max_list_size << ", "
              << v.max_entries_per_source << ", " << v.late_fires << ", "
              << v.total_sends << ", " << v.max_sends_per_source << ", 0x"
              << std::hex << v.digest << std::dec << "ull}";
  }
};

std::uint64_t result_digest(const KsspResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& row : res.dist) {
    for (const Weight d : row) fold(static_cast<std::uint64_t>(d));
  }
  for (const auto& row : res.hops) {
    for (const std::uint32_t l : row) fold(l);
  }
  for (const auto& row : res.parent) {
    for (const NodeId p : row) fold(p);
  }
  return h;
}

Golden observe(const KsspResult& res) {
  return {res.stats.rounds,        res.stats.total_messages,
          res.stats.message_bytes, res.stats.max_link_congestion,
          res.settle_round,        res.max_list_size,
          res.max_entries_per_source, res.late_fires,
          res.total_sends,         res.max_sends_per_source,
          result_digest(res)};
}

struct GoldenCase {
  const char* name;
  NodeId n;
  double p;
  WeightSpec w;
  bool directed;
  std::uint64_t seed;
  std::uint32_t k;  ///< sources (i*7) mod n for i < k; 0 = all n nodes
  std::uint32_t h;  ///< hop bound; 0 = n-1
  ListPolicy policy;
  GammaSq gamma;    ///< {0, 0} = the paper's gamma
  bool scramble;
  Golden want;
};

constexpr auto kDom = ListPolicy::kDominance;
constexpr auto kLit = ListPolicy::kLiteral;
constexpr GammaSq kPaper{0, 0};
constexpr GammaSq kUnit{1, 1};
constexpr GammaSq kHopOnly{0, 1};

const GoldenCase kGoldenCases[] = {
    // The perfbench canary: build_oracle(kPipelined) on ER n=64, seed 7
    // (384 rounds, 56,817 messages, 2,727,216 bytes in expected.json).
    {"canary_er64", 64, 4.0 / 64, {0, 6, 0.2}, false, 7, 0, 0, kDom, kPaper,
     false,
     {384, 56817, 2727216, 1, 271, 195, 5, 2491, 10005, 8,
      0x9f4f3a64c25aaa7ull}},
    // APSP on ER graphs, undirected and directed.
    {"er8_u", 8, 0.4, {0, 5, 0.2}, false, 1, 0, 0, kDom, kPaper, false,
     {44, 325, 15600, 1, 25, 15, 3, 2, 92, 3, 0x1abef7a8d89253bdull}},
    {"er16_u", 16, 0.25, {0, 5, 0.2}, false, 2, 0, 0, kDom, kPaper, false,
     {96, 2015, 96720, 1, 56, 31, 4, 26, 413, 4, 0x6ebc502363c87269ull}},
    {"er16_d", 16, 0.25, {0, 5, 0.2}, true, 3, 0, 0, kDom, kPaper, false,
     {92, 2781, 133488, 1, 58, 33, 4, 60, 426, 5, 0x58c38a888c1ff00ull}},
    {"er33_u", 33, 0.15, {0, 6, 0.2}, false, 4, 0, 0, kDom, kPaper, false,
     {198, 18347, 880656, 1, 117, 100, 5, 422, 2742, 7, 0xe8d3a4e437e51b27ull}},
    {"er33_d", 33, 0.15, {0, 6, 0.2}, true, 5, 0, 0, kDom, kPaper, false,
     {258, 27465, 1318320, 1, 129, 101, 6, 520, 2697, 7,
      0xe4f41936dd190f0cull}},
    {"er64_d", 64, 4.0 / 64, {0, 6, 0.2}, true, 6, 0, 0, kDom, kPaper, false,
     {501, 84092, 4036416, 1, 271, 183, 5, 2923, 10168, 11,
      0x9ed53bb81d26df8dull}},
    {"er100_u", 100, 4.0 / 100, {0, 6, 0.2}, false, 8, 0, 0, kDom, kPaper,
     false,
     {783, 168002, 8064096, 1, 473, 325, 6, 11092, 29163, 14,
      0xc7410a4d162e8377ull}},
    {"er24_u_wide", 24, 0.2, {1, 30, 0.0}, false, 9, 0, 0, kDom, kPaper, false,
     {320, 6194, 297312, 1, 137, 51, 4, 0, 943, 4, 0x322691f863613e27ull}},
    // Zero-heavy and all-zero weights.
    {"zero_heavy_u", 24, 0.2, {0, 3, 0.6}, false, 10, 0, 0, kDom, kPaper, false,
     {73, 4795, 230160, 1, 26, 42, 3, 0, 698, 2, 0xb91b5d9a7c3d073full}},
    {"zero_heavy_d", 24, 0.2, {0, 2, 0.8}, true, 11, 0, 0, kDom, kPaper, false,
     {73, 5890, 282720, 1, 28, 41, 3, 9, 656, 3, 0x77d3e8f9a2bc327dull}},
    {"all_zero_u", 20, 0.2, {0, 0, 0.0}, false, 12, 0, 0, kDom, kPaper, false,
     {24, 2160, 103680, 1, 22, 20, 1, 0, 400, 1, 0x49673e9d3c1ac3b9ull}},
    {"all_zero_d", 20, 0.2, {0, 0, 0.0}, true, 13, 0, 0, kDom, kPaper, false,
     {25, 3451, 165648, 1, 23, 21, 2, 0, 401, 2, 0xa281547a93ee6d89ull}},
    // k-SSP subsets with h < n-1.
    {"kssp_u_k4_h5", 24, 0.15, {0, 4, 0.2}, false, 14, 4, 5, kDom, kPaper,
     false,
     {25, 692, 33216, 1, 16, 9, 4, 2, 148, 4, 0x72f701f739de3c41ull}},
    {"kssp_d_k6_h8", 33, 0.12, {0, 6, 0.3}, true, 15, 6, 8, kDom, kPaper, false,
     {55, 3844, 184512, 1, 29, 16, 4, 54, 422, 4, 0xbd29f502a0cfcd6aull}},
    {"kssp_u_k5_h1", 16, 0.3, {0, 5, 0.2}, false, 16, 5, 1, kDom, kPaper, false,
     {12, 184, 8832, 1, 1, 5, 1, 0, 32, 1, 0x24adbdf234621621ull}},
    {"kssp_zero_k5_h6", 26, 0.15, {0, 1, 0.8}, false, 17, 5, 6, kDom, kPaper,
     false,
     {17, 826, 39648, 1, 7, 8, 2, 0, 147, 2, 0x241133ba25a988d5ull}},
    {"kssp_u_k1_h10", 40, 0.1, {0, 6, 0.3}, false, 18, 1, 10, kDom, kPaper,
     false,
     {25, 582, 27936, 1, 9, 4, 4, 0, 97, 4, 0x1ee003a077dbab67ull}},
    // The literal INSERT transcription.
    {"literal_u", 20, 0.2, {0, 5, 0.3}, false, 19, 0, 0, kLit, kPaper, false,
     {143, 4438, 213024, 1, 92, 40, 2, 70, 826, 5, 0xb7ef4210579f4c83ull}},
    {"literal_d", 20, 0.2, {0, 5, 0.3}, true, 20, 0, 0, kLit, kPaper, false,
     {110, 6407, 307536, 1, 80, 40, 2, 4, 801, 3, 0xe6cf16420b33e3dbull}},
    {"literal_kssp_d_k5_h6", 24, 0.15, {0, 5, 0.3}, true, 21, 5, 6, kLit,
     kPaper, false,
     {38, 1655, 79440, 1, 23, 11, 3, 13, 241, 4, 0x30d097dea1c1e896ull}},
    {"literal_all_zero", 20, 0.2, {0, 0, 0.0}, false, 22, 0, 0, kLit, kPaper,
     false,
     {45, 4560, 218880, 1, 29, 40, 2, 0, 800, 2, 0xa6ac0fc3604fed20ull}},
    {"literal_zero_heavy_d", 24, 0.2, {0, 2, 0.8}, true, 23, 0, 0, kLit, kPaper,
     false,
     {56, 10854, 520992, 1, 43, 48, 2, 15, 1153, 3, 0x15c30d89f4cdf1cdull}},
    // Unit and hop-only gamma.
    {"unit_gamma_u", 24, 0.2, {0, 5, 0.2}, false, 24, 0, 0, kDom, kUnit, false,
     {65, 6613, 317424, 1, 51, 55, 4, 29, 1098, 4, 0xe2e4b45532c2cacbull}},
    {"unit_gamma_kssp_d_k6_h7", 24, 0.15, {0, 6, 0.3}, true, 25, 6, 7, kDom,
     kUnit, false,
     {33, 2088, 100224, 1, 25, 15, 4, 23, 258, 4, 0xf64461863310ef7ull}},
    {"hop_only_u", 24, 0.2, {0, 5, 0.2}, false, 26, 0, 0, kDom, kHopOnly, false,
     {73, 8335, 400080, 1, 65, 63, 6, 36, 1272, 6, 0x4bff4210a980d63bull}},
    {"hop_only_kssp_d_k5_h6", 24, 0.15, {0, 5, 0.3}, true, 27, 5, 6, kDom,
     kHopOnly, false,
     {24, 2105, 101040, 1, 19, 17, 5, 15, 250, 5, 0x9b4e9145ecb14b87ull}},
    {"literal_unit_gamma", 20, 0.2, {0, 5, 0.3}, false, 28, 0, 0, kLit, kUnit,
     false,
     {105, 7644, 366912, 1, 50, 78, 7, 0, 1560, 7, 0x97be5a090f0f7a32ull}},
    {"literal_hop_only", 20, 0.2, {0, 5, 0.3}, true, 29, 0, 0, kLit, kHopOnly,
     false,
     {421, 68797, 3302256, 1, 399, 467, 30, 0, 8189, 29,
      0xbd3e76ac461c8b24ull}},
    // Scrambled arrival order within each round.
    {"scramble_u", 33, 0.15, {0, 6, 0.2}, false, 30, 0, 0, kDom, kPaper, true,
     {246, 15580, 747840, 1, 120, 92, 5, 364, 2388, 7, 0xa0ef8917e901b488ull}},
    {"scramble_literal_kssp_d_k6_h8", 33, 0.12, {0, 6, 0.3}, true, 31, 6, 8,
     kLit, kPaper, true,
     {31, 3655, 175440, 1, 19, 13, 3, 4, 400, 3, 0x48eeff64a8ed7c6eull}},
    {"scramble_hop_only_zero", 24, 0.2, {0, 2, 0.7}, false, 32, 0, 0, kDom,
     kHopOnly, true,
     {41, 4554, 218592, 1, 32, 37, 3, 0, 706, 3, 0xfea019c05c1f81deull}},
};

TEST(PipelinedGolden, ScheduleAndOutputsRepeatExactly) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    const Graph g = graph::erdos_renyi(c.n, c.p, c.w, c.seed, c.directed);
    PipelinedParams params;
    if (c.k == 0) {
      for (NodeId v = 0; v < c.n; ++v) params.sources.push_back(v);
    } else {
      for (std::uint32_t i = 0; i < c.k; ++i) {
        params.sources.push_back((i * 7) % c.n);
      }
    }
    params.h = c.h == 0 ? c.n - 1 : c.h;
    params.delta = c.h == 0 ? graph::max_finite_distance(g)
                            : graph::max_finite_hop_distance(g, params.h);
    params.gamma = c.gamma;
    params.policy = c.policy;
    params.scramble_inbox = c.scramble;
    EXPECT_EQ(observe(pipelined_kssp(g, params)), c.want);
  }
}

}  // namespace
}  // namespace dapsp::core
