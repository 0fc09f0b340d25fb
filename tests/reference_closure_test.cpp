// Differential tests for the reference closure builder.  build_oracle
// (kReference) and build_sharded_oracle(kReference, S) fill their rows with
// seq::dijkstra_row; both must equal, bit for bit in dist and next_hop, the
// closure make_oracle derives from the slow reference seq::dijkstra's rows
// and parents.  The families stress every tie-break of the canonical
// (distance, hops, smaller parent) label: zero-weight cycles, all-zero
// weights, parallel arcs, unreachable pairs.  Labelled "service", with the
// rest of the serving tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"
#include "serve/sharded_oracle.hpp"
#include "service/oracle.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::WeightSpec;

const std::size_t kShardCounts[] = {1, 3, 4, 8};

/// The slow reference closure: make_oracle over seq::dijkstra.
DistanceOracle slow_closure(const Graph& g) {
  const NodeId n = g.node_count();
  std::vector<std::vector<Weight>> dist(n);
  std::vector<std::vector<NodeId>> parent(n);
  for (NodeId s = 0; s < n; ++s) {
    auto r = seq::dijkstra(g, s);
    dist[s] = std::move(r.dist);
    parent[s] = std::move(r.parent);
  }
  return make_oracle(dist, parent, {kReferenceLabel, true, {}, {}});
}

/// Every cell of `got` (a DistanceOracle or an OracleSnapshot) equals
/// `want`; stops at the first differing cell.
template <typename Closure>
void expect_same_closure(const DistanceOracle& want, const Closure& got) {
  const NodeId n = want.node_count();
  ASSERT_EQ(got.node_count(), n);
  EXPECT_TRUE(got.exact());
  EXPECT_TRUE(got.has_paths());
  EXPECT_EQ(got.solver_label(), kReferenceLabel);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(got.dist(u, v), want.dist(u, v)) << u << "->" << v;
      ASSERT_EQ(got.next_hop(u, v), want.next_hop(u, v)) << u << "->" << v;
    }
  }
}

/// Both builders against the slow closure, plus Delta and strong
/// connectivity against the slow rows.
void check_graph(const Graph& g, const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(g.node_count()) +
               " arcs=" + std::to_string(g.edge_count()));
  const DistanceOracle want = slow_closure(g);
  const OracleBuildOptions opts{Solver::kReference};
  expect_same_closure(want, build_oracle(g, opts));
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same_closure(want, *serve::build_sharded_oracle(g, opts, shards));
  }

  Weight delta = 0;
  bool all_finite = true;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Weight d : want.dist_row(u)) {
      if (d == kInfDist) {
        all_finite = false;
      } else {
        delta = std::max(delta, d);
      }
    }
  }
  EXPECT_EQ(graph::max_finite_distance(g), delta);
  EXPECT_EQ(graph::strongly_connected(g), all_finite);
}

TEST(ReferenceClosure, ErdosRenyiUndirectedAndDirected) {
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    const NodeId n = static_cast<NodeId>(2 + seed % 31);
    const WeightSpec spec{0, 1 + static_cast<Weight>(seed % 9), 0.3};
    check_graph(graph::erdos_renyi(n, 0.25, spec, 7100 + seed), "er");
    check_graph(graph::erdos_renyi(n, 0.2, spec, 7200 + seed, true),
                "er directed");
  }
}

TEST(ReferenceClosure, SparseDisconnectedErdosRenyi) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const NodeId n = static_cast<NodeId>(6 + seed % 20);
    const WeightSpec spec{0, 6, 0.25};
    check_graph(graph::erdos_renyi(n, 0.08, spec, 7300 + seed, false, false),
                "sparse er");
    check_graph(graph::erdos_renyi(n, 0.1, spec, 7400 + seed, true, false),
                "sparse er directed");
  }
}

TEST(ReferenceClosure, ZeroWeightCycle) {
  for (const bool directed : {false, true}) {
    check_graph(graph::cycle(9, {0, 0, 0.0}, 7500, directed), "zero cycle");
    // A zero-weight cycle with positive chords: equal distances everywhere
    // on the cycle, so only hop counts and parent ids pick the paths.
    GraphBuilder b(10, directed);
    for (NodeId v = 0; v < 10; ++v) b.add_edge(v, (v + 1) % 10, 0);
    b.add_edge(0, 5, 3).add_edge(2, 7, 0).add_edge(8, 3, 1);
    check_graph(std::move(b).build(), "zero cycle + chords");
  }
}

TEST(ReferenceClosure, AllZeroWeights) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const NodeId n = static_cast<NodeId>(3 + seed * 2);
    check_graph(graph::erdos_renyi(n, 0.3, {0, 0, 0.0}, 7600 + seed),
                "all-zero er");
    check_graph(graph::erdos_renyi(n, 0.3, {0, 0, 0.0}, 7700 + seed, true),
                "all-zero er directed");
  }
  check_graph(graph::grid(5, 6, {0, 0, 0.0}, 7800), "all-zero grid");
}

TEST(ReferenceClosure, GridStarAndRmat) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    check_graph(graph::grid(4 + static_cast<NodeId>(seed), 5,
                            {0, 4, 0.3}, 7900 + seed),
                "grid");
    check_graph(graph::star(7 + static_cast<NodeId>(seed) * 5, {0, 5, 0.3},
                            8000 + seed),
                "star");
    check_graph(graph::rmat(6, 8, {0, 8, 0.2}, 8100 + seed), "rmat 6");
    check_graph(graph::rmat(6, 4, {0, 3, 0.5}, 8200 + seed, true, false),
                "rmat 6 directed, unconnected");
  }
}

TEST(ReferenceClosure, ParallelArcs) {
  // GraphBuilder keeps parallel arcs; the cheaper one must win, and a
  // zero-weight twin must not change the hop or parent tie-breaks.
  for (const bool directed : {false, true}) {
    GraphBuilder b(7, directed);
    b.add_edge(0, 1, 5).add_edge(0, 1, 2).add_edge(0, 1, 2);
    b.add_edge(1, 2, 0).add_edge(1, 2, 0).add_edge(0, 2, 2);
    b.add_edge(2, 3, 4).add_edge(2, 3, 1).add_edge(1, 3, 1);
    b.add_edge(3, 4, 0).add_edge(4, 5, 0).add_edge(3, 5, 0);
    b.add_edge(5, 6, 7).add_edge(5, 6, 7).add_edge(4, 6, 7);
    check_graph(std::move(b).build(), "parallel arcs");
  }
}

TEST(ReferenceClosure, SingleNode) {
  check_graph(GraphBuilder(1, false).build(), "n=1");
  check_graph(graph::path(1, {1, 1, 0.0}, 8300), "path n=1");
}

TEST(ReferenceClosure, KernelRowsWithOneWorkspace) {
  // One workspace across graphs that shrink and grow, with and without
  // next hops: every row equals seq::dijkstra.
  seq::RowWorkspace ws;
  for (const NodeId n : {40u, 3u, 17u, 1u, 64u}) {
    const Graph g = graph::erdos_renyi(n, 0.15, {0, 5, 0.3}, 8400 + n, true);
    const DistanceOracle want = slow_closure(g);
    std::vector<Weight> dist(n);
    std::vector<NodeId> next(n);
    for (NodeId s = 0; s < n; ++s) {
      seq::dijkstra_row(g, s, dist, next, ws);
      const auto drow = want.dist_row(s);
      const auto nrow = want.next_row(s);
      ASSERT_TRUE(std::equal(dist.begin(), dist.end(), drow.begin()))
          << "n=" << n << " s=" << s;
      ASSERT_TRUE(std::equal(next.begin(), next.end(), nrow.begin()))
          << "n=" << n << " s=" << s;
      std::fill(dist.begin(), dist.end(), -1);
      seq::dijkstra_row(g, s, dist, {}, ws);
      ASSERT_TRUE(std::equal(dist.begin(), dist.end(), drow.begin()))
          << "distance-only n=" << n << " s=" << s;
    }
  }
  // Rows of the wrong length and unknown sources are rejected, not
  // written past.
  const Graph g = graph::path(4, {1, 1, 0.0}, 8500);
  std::vector<Weight> dist(4), short_dist(3);
  std::vector<NodeId> next(4), short_next(2);
  EXPECT_THROW(seq::dijkstra_row(g, 0, short_dist, next, ws),
               std::logic_error);
  EXPECT_THROW(seq::dijkstra_row(g, 0, dist, short_next, ws),
               std::logic_error);
  EXPECT_THROW(seq::dijkstra_row(g, 4, dist, next, ws), std::logic_error);
}

}  // namespace
}  // namespace dapsp::service
