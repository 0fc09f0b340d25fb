#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"

namespace dapsp::graph {
namespace {

TEST(GraphBuilder, UndirectedAddsBothArcs) {
  GraphBuilder b(3, /*directed=*/false);
  b.add_edge(0, 1, 5);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.arc_weight(0, 1), 5);
  EXPECT_EQ(g.arc_weight(1, 0), 5);
  EXPECT_FALSE(g.arc_weight(0, 2).has_value());
}

TEST(GraphBuilder, DirectedSingleArc) {
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 5);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.arc_weight(0, 1), 5);
  EXPECT_FALSE(g.arc_weight(1, 0).has_value());
  // ... but the communication link is bidirectional.
  ASSERT_EQ(g.comm_neighbors(1).size(), 1u);
  EXPECT_EQ(g.comm_neighbors(1)[0], 0u);
}

TEST(GraphBuilder, RejectsBadInput) {
  GraphBuilder b(3, false);
  EXPECT_THROW(b.add_edge(0, 3, 1), std::logic_error);
  EXPECT_THROW(b.add_edge(1, 1, 1), std::logic_error);
  EXPECT_THROW(b.add_edge(0, 1, -2), std::logic_error);
  EXPECT_THROW(GraphBuilder(kNoNode, true), std::logic_error);
}

TEST(GraphBuilder, RejectsWeightsWhosePathsReachInfinity) {
  // An arc of weight kInfDist would be served as unreachable, and two arcs
  // of 2^62 overflow Weight on a two-hop path: (n - 1) * w must stay below
  // kInfDist.
  GraphBuilder one(2, true);
  EXPECT_THROW(one.add_edge(0, 1, kInfDist), std::logic_error);
  GraphBuilder two(3, true);
  EXPECT_THROW(two.add_edge(0, 1, Weight{1} << 62), std::logic_error);
  EXPECT_THROW(two.add_edge(1, 2, Weight{1} << 62), std::logic_error);
  EXPECT_EQ(two.pending_edge_count(), 0u);

  // The cap itself is accepted, and a path of n - 1 arcs at the cap keeps
  // its exact, finite length.
  const NodeId n = 5;
  const Weight cap = max_edge_weight(n);
  EXPECT_LT(cap * (n - 1), kInfDist);
  EXPECT_GE((cap + 1) * (n - 1), kInfDist);
  GraphBuilder b(n, false);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, cap);
  EXPECT_THROW(b.add_edge(0, n - 1, cap + 1), std::logic_error);
  const Graph g = std::move(b).build();
  EXPECT_EQ(max_finite_distance(g), cap * (n - 1));
  EXPECT_TRUE(strongly_connected(g));
}

TEST(GraphBuilder, HasArcTracksBothDirectionsWhenUndirected) {
  GraphBuilder b(4, false);
  b.add_edge(0, 1, 1);
  EXPECT_TRUE(b.has_arc(0, 1));
  EXPECT_TRUE(b.has_arc(1, 0));
  EXPECT_FALSE(b.has_arc(0, 2));
}

TEST(Graph, InEdgesMirrorOutEdges) {
  GraphBuilder b(4, true);
  b.add_edge(0, 2, 3).add_edge(1, 2, 4).add_edge(2, 3, 5);
  Graph g = std::move(b).build();
  ASSERT_EQ(g.in_edges(2).size(), 2u);
  EXPECT_EQ(g.in_edges(2)[0].from, 0u);
  EXPECT_EQ(g.in_edges(2)[1].from, 1u);
  EXPECT_EQ(g.out_edges(2).size(), 1u);
  EXPECT_EQ(g.max_weight(), 5);
}

TEST(Graph, CommNeighborsSortedAndDeduped) {
  GraphBuilder b(4, true);
  b.add_edge(0, 1, 1).add_edge(1, 0, 2).add_edge(3, 1, 1);
  Graph g = std::move(b).build();
  const auto nbrs = g.comm_neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(g.comm_edge_count(), 2u);
}

TEST(Generators, PathProperties) {
  const Graph g = path(5, {1, 1, 0.0}, 1);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 8u);  // 4 undirected edges
  EXPECT_EQ(max_finite_distance(g), 4);
  EXPECT_EQ(comm_diameter(g), 4);
}

TEST(Generators, CycleConnected) {
  const Graph g = cycle(6, {1, 1, 0.0}, 2);
  EXPECT_TRUE(strongly_connected(g));
  EXPECT_EQ(comm_diameter(g), 3);
}

TEST(Generators, DirectedCycleStronglyConnected) {
  const Graph g = cycle(5, {1, 3, 0.0}, 3, /*directed=*/true);
  EXPECT_TRUE(strongly_connected(g));
}

TEST(Generators, GridShape) {
  const Graph g = grid(3, 4, {1, 1, 0.0}, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.comm_edge_count(), 3u * 3 + 4u * 2);  // 17 grid edges
  EXPECT_TRUE(comm_connected(g));
}

TEST(Generators, StarDiameterTwo) {
  const Graph g = star(8, {1, 1, 0.0}, 5);
  EXPECT_EQ(comm_diameter(g), 2);
  EXPECT_EQ(g.comm_degree(0), 7u);
}

TEST(Generators, CompleteGraphEdgeCount) {
  const Graph g = complete(6, {0, 4, 0.0}, 6);
  EXPECT_EQ(g.comm_edge_count(), 15u);
}

TEST(Generators, RandomTreeIsConnectedAcyclic) {
  const Graph g = random_tree(40, {0, 9, 0.2}, 7);
  EXPECT_EQ(g.comm_edge_count(), 39u);
  EXPECT_TRUE(comm_connected(g));
}

TEST(Generators, ErdosRenyiConnectBackbone) {
  const Graph g = erdos_renyi(30, 0.02, {0, 5, 0.1}, 8);
  EXPECT_TRUE(comm_connected(g));
  EXPECT_TRUE(strongly_connected(g));  // undirected + connected
}

TEST(Generators, ErdosRenyiDeterministicInSeed) {
  const Graph a = erdos_renyi(20, 0.2, {0, 9, 0.1}, 11);
  const Graph b = erdos_renyi(20, 0.2, {0, 9, 0.1}, 11);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
  }
  const Graph c = erdos_renyi(20, 0.2, {0, 9, 0.1}, 12);
  bool differs = a.edge_count() != c.edge_count();
  for (std::size_t i = 0; !differs && i < a.edge_count(); ++i) {
    differs = !(a.edges()[i] == c.edges()[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, ZeroFractionProducesZeroEdges) {
  const Graph g = erdos_renyi(30, 0.3, {1, 9, 0.5}, 13);
  std::size_t zeros = 0;
  for (const Edge& e : g.edges()) zeros += e.weight == 0;
  EXPECT_GT(zeros, 0u);
}

TEST(Generators, BarabasiAlbertConnectedAndHubby) {
  const Graph g = barabasi_albert(60, 2, {1, 5, 0.0}, 30);
  EXPECT_TRUE(comm_connected(g));
  // Preferential attachment: max degree well above the attach parameter.
  std::size_t max_deg = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    max_deg = std::max(max_deg, g.comm_degree(v));
  }
  EXPECT_GE(max_deg, 6u);
  EXPECT_THROW(barabasi_albert(10, 0, {1, 1, 0.0}, 1), std::logic_error);
}

TEST(Generators, BarabasiAlbertDeterministic) {
  const Graph a = barabasi_albert(30, 2, {0, 4, 0.2}, 31);
  const Graph b = barabasi_albert(30, 2, {0, 4, 0.2}, 31);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
  }
}

TEST(Generators, IspTopologyShape) {
  const Graph g = isp_topology(4, 6, 10, 30, 0.5, 33);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_TRUE(comm_connected(g));
  // Ring (4 links) + 4 trees of 5 links each.
  EXPECT_EQ(g.comm_edge_count(), 4u + 4u * 5u);
  // Backbone weights are >= 10; some intra-PoP links are zero.
  bool saw_backbone = false, saw_zero = false;
  for (const Edge& e : g.edges()) {
    saw_backbone = saw_backbone || e.weight >= 10;
    saw_zero = saw_zero || e.weight == 0;
  }
  EXPECT_TRUE(saw_backbone);
  EXPECT_TRUE(saw_zero);
  EXPECT_THROW(isp_topology(2, 4, 1, 2, 0.0, 1), std::logic_error);
}

TEST(Generators, LayeredReachability) {
  const Graph g = layered(4, 5, 2, {1, 3, 0.0}, 14);
  EXPECT_EQ(g.node_count(), 20u);
  // Every layer-0 node reaches some layer-3 node through directed edges.
  EXPECT_TRUE(g.directed());
}

TEST(Generators, Fig1GadgetShape) {
  const Graph g = fig1_gadget(4);
  EXPECT_EQ(g.node_count(), 9u);
  // Cheap chain end ("z") is node 4, shortcut from 0 with weight 1.
  EXPECT_EQ(g.arc_weight(0, 4), 1);
  EXPECT_EQ(g.arc_weight(0, 1), 0);
  // The zero-weight chain makes every node reachable at distance 0.
  EXPECT_EQ(max_finite_distance(g), 0);
}

TEST(Generators, BoundedDistanceGraphRespectsDelta) {
  const Graph g = bounded_distance_graph(24, 0.15, 12, 15);
  EXPECT_LE(max_finite_distance(g), 12);
  EXPECT_TRUE(comm_connected(g));
}

TEST(Io, RoundTripUndirected) {
  const Graph g = erdos_renyi(15, 0.2, {0, 7, 0.2}, 21);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  ASSERT_EQ(h.node_count(), g.node_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(h.edges()[i], g.edges()[i]);
  }
}

TEST(Io, RoundTripDirected) {
  const Graph g = layered(3, 3, 2, {0, 5, 0.3}, 22);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  EXPECT_TRUE(h.directed());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(h.edges()[i], g.edges()[i]);
  }
}

TEST(Io, CommentsAndBadHeader) {
  std::stringstream ok("# comment\ndapsp undirected 2 1\n0 1 7\n");
  const Graph g = read_graph(ok);
  EXPECT_EQ(g.arc_weight(0, 1), 7);

  std::stringstream bad("wrong undirected 2 1\n0 1 7\n");
  EXPECT_THROW(read_graph(bad), std::runtime_error);
  std::stringstream truncated("dapsp undirected 2 2\n0 1 7\n");
  EXPECT_THROW(read_graph(truncated), std::runtime_error);
}

TEST(Io, TruncatedHeaderThrowsInsteadOfEmptyGraph) {
  // Regression: the header extraction was never checked, so "dapsp directed"
  // with no counts parsed as a valid 0-node graph and silently discarded
  // every edge line that followed.
  for (const char* text : {
           "dapsp directed\n0 1 7\n",
           "dapsp undirected\n",
           "dapsp\n",
           "dapsp directed four 2\n0 1 7\n",
           "dapsp directed 4\n0 1 7\n",
       }) {
    std::stringstream in(text);
    EXPECT_THROW(read_graph(in), std::runtime_error) << text;
  }
}

TEST(Io, RoundTripZeroWeightAndIsolatedNodes) {
  // Zero weights and trailing isolated nodes must survive a round trip.
  GraphBuilder b(6, /*directed=*/false);
  b.add_edge(0, 1, 0).add_edge(1, 2, 5).add_edge(2, 0, 0);
  const Graph g = std::move(b).build();
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  EXPECT_EQ(h.node_count(), 6u);
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(h.edges()[i], g.edges()[i]);
  }
}

TEST(Io, RoundTripPropertyAcrossRandomGraphs) {
  // Property test: write/read is the identity on edges for both
  // orientations across a spread of random graphs.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (const bool directed : {false, true}) {
      const Graph g = directed
                          ? layered(4, 3, 2, {0, 9, 0.3}, 500 + seed)
                          : erdos_renyi(12, 0.3, {0, 9, 0.3}, 600 + seed);
      std::stringstream ss;
      write_graph(ss, g);
      const Graph h = read_graph(ss);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " directed=" + std::to_string(directed));
      EXPECT_EQ(h.directed(), g.directed());
      EXPECT_EQ(h.node_count(), g.node_count());
      ASSERT_EQ(h.edge_count(), g.edge_count());
      for (std::size_t i = 0; i < g.edge_count(); ++i) {
        EXPECT_EQ(h.edges()[i], g.edges()[i]);
      }
    }
  }
}

TEST(Io, SelfLoopInputFailsLoudly) {
  // GraphBuilder rejects self-loops by design (zero-weight loops would break
  // next-hop routing); a file containing one must fail loudly on read, never
  // load-then-silently-drop on the next write.
  std::stringstream in("dapsp undirected 3 2\n0 1 4\n2 2 0\n");
  EXPECT_THROW(read_graph(in), std::logic_error);
}

TEST(Io, NodeCountOfNoNodeFailsLoudly) {
  // 2^32 - 1 nodes is kNoNode, and "-1" wraps to it on extraction: both
  // must fail like any other bad header, before build() sizes n + 1 offsets.
  for (const char* header :
       {"dapsp directed 4294967295 0\n", "dapsp directed -1 0\n"}) {
    std::stringstream in(header);
    EXPECT_THROW(read_graph(in), std::logic_error) << header;
  }
}

TEST(Io, WeightAboveCapFailsLoudly) {
  // A weight whose paths reach kInfDist is rejected on read, like a
  // negative one: 2^60 on 2 nodes, 2^62 on 3.
  std::stringstream inf("dapsp directed 2 1\n0 1 1152921504606846976\n");
  EXPECT_THROW(read_graph(inf), std::logic_error);
  std::stringstream big(
      "dapsp directed 3 2\n0 1 4611686018427387904\n"
      "1 2 4611686018427387904\n");
  EXPECT_THROW(read_graph(big), std::logic_error);
}

TEST(Io, DotExportUndirected) {
  GraphBuilder b(3, /*directed=*/false);
  b.add_edge(0, 1, 4).add_edge(1, 2, 0);
  const Graph g = std::move(b).build();
  std::stringstream ss;
  write_dot(ss, g);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("graph dapsp"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1 [label=\"4\"]"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2 [label=\"0\"]"), std::string::npos);
  // Each undirected edge appears once.
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
}

TEST(Io, DotExportTree) {
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1, 2).add_edge(1, 2, 3).add_edge(0, 3, 1);
  const Graph g = std::move(b).build();
  const std::vector<NodeId> parent{kNoNode, 0, 1, 0};
  std::stringstream ss;
  write_tree_dot(ss, g, parent, 0);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("0 [shape=doublecircle]"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1 [label=\"2\"]"), std::string::npos);
  EXPECT_NE(dot.find("1 -> 2 [label=\"3\"]"), std::string::npos);
}

TEST(Properties, MaxHopDistance) {
  // Path with weights 1: h-hop distance from end to end needs 4 hops.
  const Graph g = path(5, {1, 1, 0.0}, 1);
  EXPECT_EQ(max_finite_hop_distance(g, 4), 4);
  EXPECT_EQ(max_finite_hop_distance(g, 2), 2);  // only nearer pairs reachable
}

TEST(Properties, DisconnectedDiameterInfinite) {
  GraphBuilder b(4, false);
  b.add_edge(0, 1, 1).add_edge(2, 3, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(comm_diameter(g), kInfDist);
  EXPECT_FALSE(comm_connected(g));
  EXPECT_FALSE(strongly_connected(g));
}

}  // namespace
}  // namespace dapsp::graph
