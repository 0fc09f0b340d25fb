// Differential tests for the reference closure builder.  build_oracle
// (kReference) fills its rows with seq::dijkstra_row; for every shard count
// they must equal, bit for bit in dist and next_hop, the closure
// make_oracle derives from the slow reference seq::dijkstra's rows and
// parents.  The families stress every tie-break of the canonical
// (distance, hops, smaller parent) label: zero-weight cycles, all-zero
// weights, parallel arcs, unreachable pairs.  Two more stress the kernel's
// radix queue: weights up to the builder's cap, whose entries wait in high
// buckets and move down many times, and distance levels shared by many
// nodes and joined by zero-weight chains, where the merge of a level's
// sorted arrivals with its zero-weight FIFO decides every hop and parent
// tie.  Every graph is also built on pools of 1, 2 and 4 threads and on the
// process-global pool, which must all give the one-thread closure bit for
// bit, and two builds run at once on the global pool.  Labelled "service",
// with the rest of the serving tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"
#include "service/oracle.hpp"
#include "util/rng.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::WeightSpec;

const std::size_t kShardCounts[] = {1, 3, 4, 8};
/// Pools of the row loop besides one thread: pools of their own with 2 and
/// 4 threads, and 0 for the process-global pool.
const std::size_t kPooledThreadCounts[] = {2, 4, 0};

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

/// g's arcs (each undirected edge once) with weights drawn from {0, 1,
/// 2^10, 2^20, 2^30, the cap}.
Graph with_wide_weights(const Graph& g, std::uint64_t seed) {
  const Weight choices[] = {0,
                            1,
                            Weight{1} << 10,
                            Weight{1} << 20,
                            Weight{1} << 30,
                            graph::max_edge_weight(g.node_count())};
  util::Xoshiro256 rng(seed);
  GraphBuilder b(g.node_count(), g.directed());
  for (const graph::Edge& e : g.edges()) {
    if (g.directed() || e.from < e.to) {
      b.add_edge(e.from, e.to, choices[rng.below(std::size(choices))]);
    }
  }
  return std::move(b).build();
}

/// Nodes on n/6 + 1 levels.  An arc climbs at most 3 levels and weighs
/// `unit` times the gap, so paths that climb between two nodes all have
/// one length and differ only in hops and parents; zero-weight chains of 1
/// to 4 arcs join nodes of one level.
Graph leveled(NodeId n, Weight unit, std::uint64_t seed, bool directed) {
  util::Xoshiro256 rng(seed);
  std::vector<Weight> level(n);
  for (Weight& l : level) l = static_cast<Weight>(rng.below(n / 6 + 1));
  GraphBuilder b(n, directed);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const Weight gap = level[v] - level[u];
      if (gap > 0 && gap <= 3 && rng.chance(0.3)) b.add_edge(u, v, unit * gap);
    }
  }
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (NodeId i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<NodeId>(rng.below(i))]);
  }
  std::stable_sort(order.begin(), order.end(), [&level](NodeId x, NodeId y) {
    return level[x] < level[y];
  });
  std::uint64_t arcs = 0;
  std::uint64_t chain = 1 + rng.below(4);
  for (NodeId i = 1; i < n; ++i) {
    const NodeId u = order[i - 1];
    const NodeId v = order[i];
    if (level[u] != level[v] || arcs == chain) {
      arcs = 0;
      chain = 1 + rng.below(4);
    } else {
      b.add_edge(u, v, 0);
      ++arcs;
    }
  }
  return std::move(b).build();
}

/// Every cell of `got` equals `want`; stops at the first differing cell.
void expect_same_closure(const DistanceOracle& want,
                         const DistanceOracle& got) {
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

/// `got` has `want`'s tables and shard layout, compared as whole rows.
void expect_identical(const DistanceOracle& want, const DistanceOracle& got) {
  const NodeId n = want.node_count();
  ASSERT_EQ(got.node_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(std::ranges::equal(got.dist_row(u), want.dist_row(u))) << u;
    ASSERT_TRUE(std::ranges::equal(got.next_row(u), want.next_row(u))) << u;
  }
  EXPECT_EQ(got.shard_layout(), want.shard_layout());
}

/// The builder at every shard count against the slow closure, each on one
/// thread and again on every pool, plus Delta and strong connectivity
/// against the slow rows.
void check_graph(const Graph& g, const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(g.node_count()) +
               " arcs=" + std::to_string(g.edge_count()));
  const DistanceOracle want = slow_closure(g);
  OracleBuildOptions opts{Solver::kReference};
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    opts.env.threads = 1;
    const DistanceOracle one = build_oracle(g, opts, shards);
    expect_same_closure(want, one);
    for (const std::size_t threads : kPooledThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      opts.env.threads = threads;
      expect_identical(one, build_oracle(g, opts, shards));
    }
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

TEST(ReferenceClosure, WideWeights) {
  // Topologies of the ER families, reweighted up to the cap.
  const WeightSpec any{0, 1, 0.0};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const NodeId n = static_cast<NodeId>(2 + seed % 29);
    check_graph(with_wide_weights(
                    graph::erdos_renyi(n, 0.25, any, 8600 + seed), seed),
                "wide er");
    check_graph(with_wide_weights(
                    graph::erdos_renyi(n, 0.2, any, 8700 + seed, true), seed),
                "wide er directed");
    check_graph(with_wide_weights(graph::erdos_renyi(n, 0.08, any, 8800 + seed,
                                                     false, false),
                                  seed),
                "wide sparse er");
    check_graph(with_wide_weights(graph::erdos_renyi(n, 0.1, any, 8900 + seed,
                                                     true, false),
                                  seed),
                "wide sparse er directed");
  }
  // A path of arcs at the cap: its far end lies at (n - 1) * cap, just
  // below kInfDist, unless a zero-weight or a cap-weight chord cuts it.
  for (const bool directed : {false, true}) {
    const NodeId n = 9;
    const Weight cap = graph::max_edge_weight(n);
    GraphBuilder b(n, directed);
    for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, cap);
    b.add_edge(2, 6, 0).add_edge(0, 8, cap);
    check_graph(std::move(b).build(), "cap path");
  }
}

TEST(ReferenceClosure, SharedLevelsAndZeroChains) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const NodeId n = static_cast<NodeId>(8 + seed * 3);
    for (const Weight unit : {Weight{1}, Weight{5}, Weight{1} << 20}) {
      check_graph(leveled(n, unit, 9000 + seed, false), "levels");
      check_graph(leveled(n, unit, 9100 + seed, true), "levels directed");
    }
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

TEST(ReferenceClosure, ConcurrentBuildsOnTheGlobalPool) {
  // Two callers build at once on the process-global pool: the workers serve
  // one batch at a time, so the second submitter runs its whole row loop
  // inline.  Both closures are the one-thread closure.
  const Graph g = graph::rmat(8, 8, {0, 8, 0.2}, 8300);
  OracleBuildOptions opts{Solver::kReference};
  opts.env.threads = 1;
  const DistanceOracle one = build_oracle(g, opts, 4);
  opts.env.threads = 0;
  for (int round = 0; round < 4; ++round) {
    std::atomic<int> ready{0};
    DistanceOracle got[2];
    const auto build = [&](int i) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      got[i] = build_oracle(g, opts, 4);
    };
    std::thread other(build, 1);
    build(0);
    other.join();
    expect_identical(one, got[0]);
    expect_identical(one, got[1]);
  }
}

TEST(ReferenceClosure, KernelRowsWithOneWorkspace) {
  // One workspace across graphs that shrink and grow and alternate
  // all-zero, W = 8 and wide weights, with and without next hops: every
  // row equals seq::dijkstra, and every call leaves the queue empty.
  seq::RowWorkspace ws;
  const auto queue_empty = [&ws] {
    return ws.zero.empty() &&
           std::all_of(ws.buckets.begin(), ws.buckets.end(),
                       [](const auto& bucket) { return bucket.empty(); });
  };
  for (const NodeId n : {40u, 3u, 17u, 1u, 64u}) {
    const Graph w8 = graph::erdos_renyi(n, 0.15, {0, 8, 0.3}, 8400 + n, true);
    const Graph kinds[] = {
        graph::erdos_renyi(n, 0.15, {0, 0, 0.0}, 8400 + n, true), w8,
        with_wide_weights(w8, 8450 + n)};
    for (const Graph& g : kinds) {
      const DistanceOracle want = slow_closure(g);
      std::vector<Weight> dist(n);
      std::vector<NodeId> next(n);
      for (NodeId s = 0; s < n; ++s) {
        seq::dijkstra_row(g, s, dist, next, ws);
        ASSERT_TRUE(queue_empty()) << "n=" << n << " s=" << s;
        const auto drow = want.dist_row(s);
        const auto nrow = want.next_row(s);
        ASSERT_TRUE(std::equal(dist.begin(), dist.end(), drow.begin()))
            << "n=" << n << " s=" << s << " W=" << g.max_weight();
        ASSERT_TRUE(std::equal(next.begin(), next.end(), nrow.begin()))
            << "n=" << n << " s=" << s << " W=" << g.max_weight();
        std::fill(dist.begin(), dist.end(), -1);
        seq::dijkstra_row(g, s, dist, {}, ws);
        ASSERT_TRUE(std::equal(dist.begin(), dist.end(), drow.begin()))
            << "distance-only n=" << n << " s=" << s << " W=" << g.max_weight();
      }
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
