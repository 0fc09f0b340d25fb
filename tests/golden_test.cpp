// Golden table for every CONGEST solver except Algorithm 1 itself, which
// PipelinedGolden (pipelined_test) pins the same way.  The sweeps elsewhere
// check distances, round upper bounds and that the two schedulers agree;
// none of them notices a change that shifts every schedule alike.  These
// rows pin what each solver observably produces: the paper quantities
// (rounds, messages, message_bytes, link congestion), the sparse
// scheduler's executed/skipped split, an FNV-1a digest of the outputs and
// the solver's own phase counters.
//
// Every case runs on the sparse and the dense schedule, on 1 and 4 engine
// threads, and each run must repeat its row exactly.  The dense schedule
// executes every round, so its row has executed = rounds and skipped = 0.
// The rows were captured from the engine that gathered each inbox from its
// receiver's in-links and pushed a heap entry on every re-hint; a rewrite
// that is meant to be a pure speed-up must never need to re-capture them.
// On a mismatch the observed row prints in the table's own format.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "baseline/bf_apsp.hpp"
#include "baseline/unweighted_apsp.hpp"
#include "congest/engine.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker.hpp"
#include "core/blocker_apsp.hpp"
#include "core/cssp.hpp"
#include "core/scaled_apsp.hpp"
#include "core/short_range.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dapsp::core {
namespace {

using congest::RunEnv;
using congest::RunStats;
using graph::Graph;
using graph::NodeId;
using graph::WeightSpec;

/// Everything one solver run observably produces.  `phase` holds the
/// solver's own counters, unused slots 0:
///   short-range   settle_round, max_sends_per_node, late_sends
///   CSSSP         tree members over all sources, deepest tree depth
///   blocker set   |blockers|, update_congestion, max_update_phase_rounds,
///                 score_init_rounds
///   blocker APSP  cssp_rounds, blocker_rounds, sssp_rounds, combine_rounds
///   scaled        max_queue_depth
///   approx        scales
///   Bellman-Ford  (none)
///   unweighted    settle_round, max_sends_per_node_per_source
struct Golden {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t message_bytes;
  std::uint64_t max_link_congestion;
  std::uint64_t max_link_total;
  std::uint64_t executed_rounds;
  std::uint64_t skipped_rounds;
  std::uint64_t digest;  ///< FNV-1a 64 over the solver's outputs
  std::array<std::uint64_t, 4> phase;

  friend bool operator==(const Golden&, const Golden&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Golden& v) {
    os << '{' << v.rounds << ", " << v.messages << ", " << v.message_bytes
       << ", " << v.max_link_congestion << ", " << v.max_link_total << ", "
       << v.executed_rounds << ", " << v.skipped_rounds << ", 0x" << std::hex
       << v.digest << std::dec << "ull, {" << v.phase[0] << ", "
       << v.phase[1] << ", " << v.phase[2] << ", " << v.phase[3] << "}}";
    return os;
  }
};

/// FNV-1a 64 over integer values, rows and tables, folded byte by byte.
class Digest {
 public:
  template <typename T>
  Digest& add(const T& v) {
    if constexpr (requires { v.begin(); }) {
      for (const auto& x : v) add(x);
    } else {
      const auto u = static_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        h_ ^= (u >> (8 * b)) & 0xffu;
        h_ *= 0x100000001b3ull;
      }
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Golden base(const RunStats& s, std::uint64_t digest,
            std::array<std::uint64_t, 4> phase) {
  return {s.rounds,
          s.total_messages,
          s.message_bytes,
          s.max_link_congestion,
          s.max_link_total,
          s.rounds - s.skipped_rounds,
          s.skipped_rounds,
          digest,
          phase};
}

enum Solver {
  kShortRange,
  kCsssp,
  kBlockerSet,
  kBlockerApsp,
  kScaled,
  kApprox,
  kBellmanFord,
  kUnweighted,
};

/// An Erdős–Rényi graph (rows == 0) or a rows x cols grid.
struct Topo {
  NodeId rows;
  NodeId n;  ///< ER node count, or grid columns
  double p;
  bool directed;
};
constexpr Topo er(NodeId n, double p) { return {0, n, p, false}; }
constexpr Topo er_d(NodeId n, double p) { return {0, n, p, true}; }
constexpr Topo grid(NodeId rows, NodeId cols) { return {rows, cols, 0, false}; }

struct GoldenCase {
  const char* name;
  Solver solver;
  Topo topo;
  WeightSpec w;
  std::uint64_t seed;
  std::uint32_t k;  ///< sources (i*7) mod n for i < k; 0 = every node
  std::uint32_t h;  ///< hop parameter; 0 = n-1 (blocker APSP: its own h)
  Golden want;
};

Graph make_graph(const GoldenCase& c) {
  if (c.topo.rows > 0) return graph::grid(c.topo.rows, c.topo.n, c.w, c.seed);
  return graph::erdos_renyi(c.topo.n, c.topo.p, c.w, c.seed, c.topo.directed);
}

std::vector<NodeId> sources_of(const GoldenCase& c, NodeId n) {
  std::vector<NodeId> s;
  const std::uint32_t k = c.k == 0 ? n : c.k;
  for (std::uint32_t i = 0; i < k; ++i) {
    s.push_back(c.k == 0 ? i : (i * 7) % n);
  }
  std::sort(s.begin(), s.end());
  return s;
}

CsspCollection run_cssp(const Graph& g, const GoldenCase& c,
                        const RunEnv& env) {
  return build_cssp(g, sources_of(c, g.node_count()), c.h,
                    graph::max_finite_hop_distance(g, 2 * c.h), env);
}

Golden observe(const GoldenCase& c, const Graph& g, const RunEnv& env) {
  const NodeId n = g.node_count();
  const std::uint32_t h = c.h == 0 ? n - 1 : c.h;
  switch (c.solver) {
    case Solver::kShortRange: {
      ShortRangeParams p;
      p.sources = sources_of(c, n);
      p.h = h;
      p.delta = graph::max_finite_hop_distance(g, h);
      p.env = env;
      const auto r = short_range(g, p);
      return base(r.stats,
                  Digest().add(r.dist).add(r.hops).add(r.parent).value(),
                  {r.settle_round, r.max_sends_per_node, r.late_sends, 0});
    }
    case Solver::kCsssp: {
      const auto r = run_cssp(g, c, env);
      std::uint64_t members = 0;
      std::uint64_t deepest = 0;
      for (std::size_t i = 0; i < r.sources.size(); ++i) {
        for (NodeId v = 0; v < n; ++v) {
          if (!r.in_tree(i, v)) continue;
          ++members;
          deepest = std::max<std::uint64_t>(deepest, r.depth[i][v]);
        }
      }
      return base(r.stats,
                  Digest()
                      .add(r.parent)
                      .add(r.depth)
                      .add(r.dist)
                      .add(r.dist2h)
                      .add(r.hops2h)
                      .add(r.parent2h)
                      .value(),
                  {members, deepest, 0, 0});
    }
    case Solver::kBlockerSet: {
      const auto r = compute_blocker_set(g, run_cssp(g, c, env), env);
      return base(r.stats, Digest().add(r.blockers).value(),
                  {r.blockers.size(), r.update_congestion,
                   r.max_update_phase_rounds, r.score_init_rounds});
    }
    case Solver::kBlockerApsp: {
      BlockerApspParams p;
      if (c.k != 0) p.sources = sources_of(c, n);
      p.h = c.h;
      p.env = env;
      const auto r = blocker_apsp(g, p);
      return base(
          r.stats,
          Digest().add(r.dist).add(r.parent).add(r.blockers).add(r.h).value(),
          {r.cssp_rounds, r.blocker_rounds, r.sssp_rounds, r.combine_rounds});
    }
    case Solver::kScaled: {
      ScaledApspParams p;
      p.h = h;
      p.delta = graph::max_finite_hop_distance(g, h);
      p.env = env;
      const auto r = scaled_hhop_apsp(g, p);
      return base(r.stats, Digest().add(r.dist).add(r.hops).value(),
                  {r.max_queue_depth, 0, 0, 0});
    }
    case Solver::kApprox: {
      ApproxApspParams p;
      p.eps = 0.5;
      p.env = env;
      const auto r = approx_apsp(g, p);
      return base(r.stats, Digest().add(r.dist).value(), {r.scales, 0, 0, 0});
    }
    case Solver::kBellmanFord: {
      const auto r = baseline::bf_apsp(g, env);
      return base(r.stats, Digest().add(r.dist).value(), {0, 0, 0, 0});
    }
    case Solver::kUnweighted: {
      baseline::PositiveApspParams p;
      if (c.k != 0) p.sources = sources_of(c, n);
      p.env = env;
      const auto r = baseline::positive_apsp(g, p);
      return base(r.stats, Digest().add(r.dist).value(),
                  {r.settle_round, r.max_sends_per_node_per_source, 0, 0});
    }
  }
  return {};
}

const GoldenCase kGoldenCases[] = {
    // Algorithm 2 (short-range), k-SSP over h hops.
    {"sr_er32_u_k1_h8", kShortRange, er(32, 0.12), {0, 6, 0.2}, 101, 1, 8,
     {18, 231, 7392, 1, 2, 18, 0, 0x826dfc883489e95cull, {16, 2, 0, 0}}},
    {"sr_er32_d_k1_h8", kShortRange, er_d(32, 0.12), {0, 6, 0.2}, 102, 1, 8,
     {17, 270, 8640, 1, 1, 17, 0, 0xe9b206cfdaf5e3eull, {6, 1, 0, 0}}},
    {"sr_er30_u_k4_h6", kShortRange, er(30, 0.12), {0, 5, 0.3}, 103, 4, 6,
     {17, 500, 16000, 2, 5, 17, 0, 0xacbac0c06c9345fdull, {13, 2, 0, 0}}},
    {"sr_er30_d_k4_h6", kShortRange, er_d(30, 0.12), {0, 5, 0.3}, 104, 4, 6,
     {17, 1004, 32128, 3, 4, 17, 0, 0x612b43d6e85386d4ull, {8, 1, 0, 0}}},
    {"sr_zero_heavy_d", kShortRange, er_d(24, 0.15), {0, 3, 0.6}, 105, 3, 8,
     {10, 606, 19392, 2, 3, 10, 0, 0x1b3266650a76a172ull, {6, 1, 0, 0}}},
    {"sr_all_zero_u", kShortRange, er(24, 0.15), {0, 0, 0.0}, 106, 3, 6,
     {4, 348, 11136, 2, 3, 4, 0, 0xf00b28b90429bd4ull, {2, 1, 0, 0}}},
    {"sr_grid5x6_k3", kShortRange, grid(5, 6), {1, 4, 0.0}, 107, 3, 9,
     {31, 294, 9408, 1, 3, 31, 0, 0x74a7eca37fd22660ull, {24, 1, 0, 0}}},
    // CSSSP: Algorithm 1 over 2h hops, truncated to verified h-hop trees.
    {"cssp_er18_u_h3", kCsssp, er(18, 0.2), {0, 4, 0.3}, 201, 0, 3,
     {149, 5082, 186912, 3, 42, 132, 17,
      0x8b0deed87d170cefull, {194, 3, 0, 0}}},
    {"cssp_er18_d_h3", kCsssp, er_d(18, 0.2), {0, 4, 0.3}, 202, 0, 3,
     {125, 8613, 322064, 3, 37, 124, 1, 0xd56362cb99af399ull, {182, 3, 0, 0}}},
    {"cssp_er20_u_k5_h4", kCsssp, er(20, 0.18), {0, 5, 0.2}, 203, 5, 4,
     {63, 1923, 68272, 2, 11, 56, 7, 0xf79742631c10209aull, {81, 4, 0, 0}}},
    {"cssp_zero_heavy_d", kCsssp, er_d(16, 0.22), {0, 3, 0.6}, 204, 0, 3,
     {111, 5705, 195824, 3, 32, 108, 3, 0xdd92106cf4f835f0ull, {199, 3, 0, 0}}},
    {"cssp_all_zero_u", kCsssp, er(16, 0.22), {0, 0, 0.0}, 205, 4, 3,
     {29, 977, 30384, 3, 8, 28, 1, 0x1d9df087906e0a05ull, {64, 3, 0, 0}}},
    {"cssp_grid4x5", kCsssp, grid(4, 5), {1, 3, 0.0}, 206, 0, 3,
     {135, 3664, 121216, 4, 38, 126, 9, 0xa6bb3101a3f4d0edull, {262, 3, 0, 0}}},
    // The blocker set (Algorithm 4) over a CSSSP collection.
    {"bs_er16_u_h3", kBlockerSet, er(16, 0.22), {0, 4, 0.3}, 301, 0, 3,
     {261, 531, 11336, 2, 11, 239, 22, 0x9c224e8ab81eef82ull, {4, 1, 15, 21}}},
    {"bs_er16_d_h3", kBlockerSet, er_d(16, 0.22), {0, 4, 0.3}, 302, 0, 3,
     {363, 697, 15072, 2, 10, 331, 32, 0xaeaadaef9790eb62ull, {6, 1, 15, 21}}},
    {"bs_er18_u_k6_h3", kBlockerSet, er(18, 0.2), {0, 4, 0.3}, 303, 6, 3,
     {171, 339, 7560, 3, 3, 149, 22, 0xf4f1915bdc4f27afull, {4, 1, 5, 11}}},
    {"bs_zero_heavy_u", kBlockerSet, er(16, 0.22), {0, 3, 0.6}, 304, 0, 2,
     {364, 509, 11520, 2, 5, 332, 32, 0xed061beb2b1a8149ull, {6, 1, 12, 20}}},
    {"bs_all_zero_d", kBlockerSet, er_d(16, 0.22), {0, 0, 0.0}, 305, 0, 3,
     {307, 632, 13488, 2, 11, 280, 27, 0xde0b43a09c23945ull, {5, 1, 15, 21}}},
    {"bs_grid4x5_h2", kBlockerSet, grid(4, 5), {1, 3, 0.0}, 306, 0, 2,
     {616, 730, 17088, 2, 4, 574, 42, 0x2e73cc9c7fa338b5ull, {8, 1, 12, 24}}},
    // Algorithm 3: blocker APSP and k-SSP, exact.
    {"ba_er16_u_h3", kBlockerApsp, er(16, 0.2), {0, 4, 0.3}, 401, 0, 3,
     {541, 9609, 306664, 3, 144, 510, 31,
      0x544915210d748211ull, {103, 211, 30, 197}}},
    {"ba_er16_d_h3", kBlockerApsp, er_d(16, 0.2), {0, 4, 0.3}, 402, 0, 3,
     {757, 15066, 479496, 4, 240, 707, 50,
      0x3870f669a5cbe5e2ull, {112, 285, 58, 302}}},
    {"ba_er18_u_auto_h", kBlockerApsp, er(18, 0.2), {0, 5, 0.2}, 403, 0, 0,
     {200, 8461, 282152, 4, 39, 193, 7,
      0xdedc3a72383f5318ull, {127, 41, 0, 32}}},
    {"ba_er18_d_k4_h4", kBlockerApsp, er_d(18, 0.18), {0, 5, 0.25}, 404, 4, 4,
     {263, 4567, 138312, 3, 36, 232, 31,
      0x597cd370f6aa1874ull, {46, 118, 39, 60}}},
    {"ba_zero_heavy_u", kBlockerApsp, er(16, 0.22), {0, 3, 0.6}, 405, 0, 3,
     {510, 8975, 282488, 4, 144, 479, 31,
      0x1329e9f040f9e8b0ull, {101, 195, 30, 184}}},
    {"ba_all_zero_d", kBlockerApsp, er_d(16, 0.22), {0, 0, 0.0}, 406, 0, 3,
     {712, 13212, 401584, 4, 240, 667, 45,
      0xaf966152cfdab0abull, {77, 307, 38, 290}}},
    {"ba_grid4x5_h2", kBlockerApsp, grid(4, 5), {1, 3, 0.0}, 407, 0, 2,
     {1497, 15774, 496904, 5, 480, 1425, 72,
      0x172e81bcb87bf59full, {123, 616, 102, 656}}},
    // Per-source Algorithm 2 multiplexed over one engine (Sec. II-C).
    {"sc_er16_u", kScaled, er(16, 0.25), {0, 5, 0.3}, 501, 0, 0,
     {32, 1803, 72120, 1, 27, 32, 0, 0x5be73ea727f79a25ull, {10, 0, 0, 0}}},
    {"sc_er16_d", kScaled, er_d(16, 0.25), {0, 5, 0.3}, 502, 0, 0,
     {32, 2414, 96560, 1, 28, 32, 0, 0x73c3232e770c1607ull, {10, 0, 0, 0}}},
    {"sc_er20_u_h4", kScaled, er(20, 0.18), {0, 6, 0.2}, 503, 0, 4,
     {33, 2905, 116200, 1, 33, 33, 0, 0x57a188444c27d144ull, {12, 0, 0, 0}}},
    {"sc_zero_heavy_d", kScaled, er_d(16, 0.2), {0, 3, 0.6}, 504, 0, 0,
     {22, 1795, 71800, 1, 21, 22, 0, 0xb311a08412d803e6ull, {10, 0, 0, 0}}},
    {"sc_all_zero_u", kScaled, er(16, 0.2), {0, 0, 0.0}, 505, 0, 0,
     {16, 1312, 52480, 1, 16, 16, 0, 0xb5a8353139981ac5ull, {10, 0, 0, 0}}},
    {"sc_grid4x5", kScaled, grid(4, 5), {1, 4, 0.0}, 506, 0, 0,
     {70, 1240, 49600, 1, 20, 70, 0, 0x8686fdb09d759045ull, {3, 0, 0, 0}}},
    // (1+eps)-approximate APSP, eps = 1/2.
    {"ap_er14_u", kApprox, er(14, 0.25), {0, 6, 0.3}, 601, 0, 0,
     {1053, 13323, 319752, 1, 14, 1053, 0,
      0x5863d5883f402f05ull, {14, 0, 0, 0}}},
    {"ap_er14_d", kApprox, er_d(14, 0.25), {0, 6, 0.3}, 602, 0, 0,
     {1409, 11158, 267792, 1, 14, 1408, 1,
      0x563e17b5db0c7c6ull, {14, 0, 0, 0}}},
    {"ap_er16_u_wide", kApprox, er(16, 0.25), {1, 40, 0.0}, 603, 0, 0,
     {1237, 8456, 202944, 1, 16, 1020, 217,
      0xb0768acda0313725ull, {18, 0, 0, 0}}},
    {"ap_zero_heavy_u", kApprox, er(14, 0.2), {0, 4, 0.5}, 604, 0, 0,
     {1008, 10414, 249936, 1, 14, 1008, 0,
      0x411b5f809cb00365ull, {14, 0, 0, 0}}},
    {"ap_all_zero_d", kApprox, er_d(12, 0.3), {0, 0, 0.0}, 605, 0, 0,
     {401, 5343, 128232, 1, 12, 151, 250, 0x36fe4d3f1c233d25ull, {4, 0, 0, 0}}},
    {"ap_grid3x4", kApprox, grid(3, 4), {1, 5, 0.0}, 606, 0, 0,
     {679, 1921, 46104, 1, 12, 564, 115, 0x61ec21bf80da8e05ull, {13, 0, 0, 0}}},
    // Baseline: n sequential Bellman-Ford SSSPs.
    {"bf_er20_u", kBellmanFord, er(20, 0.2), {1, 7, 0.0}, 701, 0, 0,
     {101, 2531, 60744, 1, 3, 81, 20, 0x3e9cc9948ff833e5ull, {0, 0, 0, 0}}},
    {"bf_er20_d", kBellmanFord, er_d(20, 0.2), {1, 7, 0.0}, 702, 0, 0,
     {114, 3895, 93480, 1, 3, 94, 20, 0x7252a645555ff028ull, {0, 0, 0, 0}}},
    {"bf_er24_u", kBellmanFord, er(24, 0.15), {0, 6, 0.2}, 703, 0, 0,
     {158, 7161, 171864, 1, 5, 134, 24, 0x7401db8c082bc425ull, {0, 0, 0, 0}}},
    {"bf_zero_heavy_d", kBellmanFord, er_d(20, 0.2), {0, 3, 0.5}, 704, 0, 0,
     {122, 5121, 122904, 1, 4, 102, 20, 0x13f631ef6a6fdd25ull, {0, 0, 0, 0}}},
    {"bf_all_zero_u", kBellmanFord, er(16, 0.25), {0, 0, 0.0}, 705, 0, 0,
     {52, 1472, 35328, 1, 1, 36, 16, 0x28c31cf8df2ec325ull, {0, 0, 0, 0}}},
    {"bf_grid4x5", kBellmanFord, grid(4, 5), {1, 4, 0.0}, 706, 0, 0,
     {134, 1240, 29760, 1, 1, 114, 20, 0xbedbcf5d066b6825ull, {0, 0, 0, 0}}},
    // Baseline: pipelined unweighted (hop-distance) APSP and k-SSP.
    {"uw_er24_u", kUnweighted, er(24, 0.15), {0, 6, 0.2}, 801, 0, 0,
     {29, 2832, 67968, 1, 24, 29, 0, 0x41b6bbce43382e45ull, {25, 1, 0, 0}}},
    {"uw_er24_d", kUnweighted, er_d(24, 0.15), {0, 6, 0.2}, 802, 0, 0,
     {29, 4992, 119808, 1, 24, 29, 0, 0x6f10cff8a2aaffa2ull, {26, 1, 0, 0}}},
    {"uw_er30_u_k5", kUnweighted, er(30, 0.12), {0, 6, 0.2}, 803, 5, 0,
     {10, 800, 19200, 1, 5, 10, 0, 0x1ae1615e0d085ac7ull, {8, 1, 0, 0}}},
    {"uw_er30_d_k5", kUnweighted, er_d(30, 0.12), {0, 6, 0.2}, 804, 5, 0,
     {10, 1310, 31440, 1, 5, 10, 0, 0x745c70559ae472c5ull, {8, 1, 0, 0}}},
    {"uw_all_zero_u", kUnweighted, er(20, 0.2), {0, 0, 0.0}, 805, 0, 0,
     {25, 2080, 49920, 1, 20, 25, 0, 0xd26b50f6c0c59c85ull, {22, 1, 0, 0}}},
    {"uw_grid5x6", kUnweighted, grid(5, 6), {1, 4, 0.0}, 806, 0, 0,
     {40, 2940, 70560, 1, 30, 40, 0, 0xd4a9736445537685ull, {38, 1, 0, 0}}},
};

// A phase that drops the RunEnv runs sparse under a dense request, and the
// row's executed and skipped rounds stop matching wherever that phase skips
// a round: the dense rows double as the check that every engine a solver
// builds gets the caller's env.
void expect_rows(Solver solver) {
  for (const GoldenCase& c : kGoldenCases) {
    if (c.solver != solver) continue;
    SCOPED_TRACE(c.name);
    const Graph g = make_graph(c);
    for (const bool dense : {false, true}) {
      Golden want = c.want;
      if (dense) {
        want.executed_rounds = want.rounds;
        want.skipped_rounds = 0;
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_EQ(observe(c, g, {threads, false, dense}), want)
            << (dense ? "dense" : "sparse") << ", threads=" << threads;
      }
    }
  }
}

TEST(SolverGolden, ShortRange) { expect_rows(kShortRange); }
TEST(SolverGolden, Csssp) { expect_rows(kCsssp); }
TEST(SolverGolden, BlockerSet) { expect_rows(kBlockerSet); }
TEST(SolverGolden, BlockerApsp) { expect_rows(kBlockerApsp); }
TEST(SolverGolden, Scaled) { expect_rows(kScaled); }
TEST(SolverGolden, Approx) { expect_rows(kApprox); }
TEST(SolverGolden, BellmanFord) { expect_rows(kBellmanFord); }
TEST(SolverGolden, Unweighted) { expect_rows(kUnweighted); }

}  // namespace
}  // namespace dapsp::core
