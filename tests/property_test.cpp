// Property-based differential harness: every solver against sequential
// Dijkstra, across seeded graph families.
//
// Each (family, solver) pair sweeps several sizes x seeds, so the suite
// covers well over a hundred generated cases.  For exact solvers the
// properties are strict equality of every distance plus a full validity
// check of every reconstructed path (each hop is a real edge, the weight
// sum equals the reported distance); for the approximate solver the
// distance must land in the [d, (1+eps)d] sandwich and zero-distance pairs
// must be exact.  On failure the offending graph is printed as a
// `read_graph` payload, so any red case can be replayed with
// `dapsp_cli --graph FILE` without re-deriving the generator arguments.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "query/types.hpp"
#include "seq/centrality.hpp"
#include "seq/constrained.hpp"
#include "seq/dijkstra.hpp"
#include "seq/yen.hpp"
#include "service/oracle.hpp"
#include "service/query_service.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::kInfDist;
using graph::NodeId;
using graph::Weight;

enum class Family { kPath, kStar, kGrid, kRandom, kZeroCycle };

const char* family_name(Family f) {
  switch (f) {
    case Family::kPath: return "path";
    case Family::kStar: return "star";
    case Family::kGrid: return "grid";
    case Family::kRandom: return "random";
    case Family::kZeroCycle: return "zero_cycle";
  }
  return "?";
}

/// One generated instance.  `n` is a size knob, not always the exact node
/// count (grid rounds to rows x cols).
Graph make_family(Family f, NodeId n, std::uint64_t seed) {
  switch (f) {
    case Family::kPath:
      return graph::path(n, {0, 6, 0.2}, seed, /*directed=*/false);
    case Family::kStar:
      return graph::star(n, {1, 9, 0.0}, seed);
    case Family::kGrid:
      return graph::grid(3, (n + 2) / 3, {0, 4, 0.1}, seed);
    case Family::kRandom:
      return graph::erdos_renyi(n, 0.35, {0, 5, 0.25}, seed,
                                /*directed=*/(seed % 2) == 1);
    case Family::kZeroCycle:
      // Zero-heavy cycle: long zero-weight plateaus stress tie-breaking and
      // hop accounting in every solver.
      return graph::cycle(n, {0, 1, 0.7}, seed, /*directed=*/false);
  }
  throw std::logic_error("unknown family");
}

/// The failing graph, replayable: paste into a file and run
/// `dapsp_cli <cmd> --graph FILE` or feed to graph::read_graph.
std::string replay_payload(const Graph& g, const std::string& where) {
  std::ostringstream os;
  os << where << "; replay payload (graph::read_graph / --graph):\n";
  graph::write_graph(os, g);
  return os.str();
}

/// Weight of the cheapest u->v arc; kInfDist when absent.
Weight arc_weight(const Graph& g, NodeId u, NodeId v) {
  Weight best = kInfDist;
  for (const auto& e : g.out_edges(u)) {
    if (e.to == v && e.weight < best) best = e.weight;
  }
  return best;
}

/// Checks one reconstructed path: endpoints, real edges, weight sum.
void check_path(const Graph& g, const DistanceOracle& o, NodeId u, NodeId v,
                Weight want, const std::string& ctx) {
  const auto p = o.path(u, v);
  if (want == kInfDist) {
    EXPECT_FALSE(p.has_value()) << ctx;
    return;
  }
  ASSERT_TRUE(p.has_value()) << ctx;
  ASSERT_GE(p->size(), 1u) << ctx;
  EXPECT_EQ(p->front(), u) << ctx;
  EXPECT_EQ(p->back(), v) << ctx;
  Weight sum = 0;
  for (std::size_t i = 0; i + 1 < p->size(); ++i) {
    const Weight w = arc_weight(g, (*p)[i], (*p)[i + 1]);
    ASSERT_NE(w, kInfDist)
        << ctx << ": path hop " << (*p)[i] << "->" << (*p)[i + 1]
        << " is not an edge";
    sum += w;
  }
  EXPECT_EQ(sum, want) << ctx << ": path weight sum != distance";
}

struct Case {
  Family family;
  Solver solver;
};

class SolverProperty : public ::testing::TestWithParam<Case> {};

TEST_P(SolverProperty, MatchesDijkstraOnSeededSweep) {
  const Case& c = GetParam();
  OracleBuildOptions opts;
  opts.solver = c.solver;
  opts.eps = 0.5;
  std::uint64_t cases = 0;
  for (NodeId n = 5; n <= 13; n += 4) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = make_family(c.family, n, seed * 37 + n);
      const DistanceOracle o = build_oracle(g, opts);
      ++cases;
      std::ostringstream tag;
      tag << family_name(c.family) << "/" << solver_name(c.solver)
          << " n=" << n << " seed=" << seed;
      const std::string ctx = replay_payload(g, tag.str());
      const NodeId nn = g.node_count();
      ASSERT_EQ(o.node_count(), nn) << ctx;
      for (NodeId s = 0; s < nn; ++s) {
        const auto dj = seq::dijkstra(g, s);
        for (NodeId v = 0; v < nn; ++v) {
          const Weight want = dj.dist[v];
          const Weight got = o.dist(s, v);
          if (o.exact()) {
            ASSERT_EQ(got, want) << ctx << " pair " << s << "->" << v;
          } else if (want == kInfDist) {
            ASSERT_EQ(got, kInfDist) << ctx << " pair " << s << "->" << v;
          } else {
            ASSERT_GE(got, want) << ctx << " pair " << s << "->" << v;
            if (want == 0) {
              ASSERT_EQ(got, 0) << ctx << " pair " << s << "->" << v;
            } else {
              ASSERT_LE(static_cast<double>(got),
                        (1.0 + opts.eps) * static_cast<double>(want))
                  << ctx << " pair " << s << "->" << v;
            }
          }
          if (o.has_paths()) {
            check_path(g, o, s, v, want,
                       ctx + " path " + std::to_string(s) + "->" +
                           std::to_string(v));
          }
        }
      }
    }
  }
  // 3 sizes x 4 seeds per (family, solver); the full suite of 30 params
  // exercises 360 generated graphs.
  EXPECT_GE(cases, 12u);
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const Family f : {Family::kPath, Family::kStar, Family::kGrid,
                         Family::kRandom, Family::kZeroCycle}) {
    for (const Solver s : {Solver::kPipelined, Solver::kBlocker,
                           Solver::kScaled, Solver::kApprox,
                           Solver::kReference, Solver::kBellmanFord}) {
      out.push_back({f, s});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SolverProperty, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(family_name(param_info.param.family)) + "_" +
             solver_name(param_info.param.solver);
    });

// ---------------------------------------------------------------------------
// Query-differential dimension: the closure-backed analytics engine
// (query::Analytics, exercised through the full QueryService) against the
// sequential references in src/seq/, across graph families including RMAT.
// All comparisons are exact (operator== on the canonical answers) except
// betweenness, whose floating-point accumulation gets a tight tolerance.
// Every returned route is additionally re-walked edge-by-edge against the
// graph, so a bug that fooled both sides identically would still have to
// produce real paths of the claimed weight to pass.

enum class QFamily { kPath, kGrid, kRandom, kZeroCycle, kRmat };

const char* qfamily_name(QFamily f) {
  switch (f) {
    case QFamily::kPath: return "path";
    case QFamily::kGrid: return "grid";
    case QFamily::kRandom: return "random";
    case QFamily::kZeroCycle: return "zero_cycle";
    case QFamily::kRmat: return "rmat";
  }
  return "?";
}

Graph make_qfamily(QFamily f, NodeId n, std::uint64_t seed) {
  switch (f) {
    case QFamily::kPath:
      return graph::path(n, {0, 6, 0.2}, seed, /*directed=*/false);
    case QFamily::kGrid:
      return graph::grid(3, (n + 2) / 3, {0, 4, 0.1}, seed);
    case QFamily::kRandom:
      return graph::erdos_renyi(n, 0.35, {0, 5, 0.25}, seed,
                                /*directed=*/(seed % 2) == 1);
    case QFamily::kZeroCycle:
      return graph::cycle(n, {0, 1, 0.7}, seed, /*directed=*/false);
    case QFamily::kRmat:
      // scale 3..5 (8..32 nodes) keeps the n^2 reference sweeps fast while
      // still exercising the skewed-degree regime the generator exists for.
      return graph::rmat(/*scale=*/2 + n / 4, /*edgefactor=*/3, {0, 7, 0.1},
                         seed, /*directed=*/false);
  }
  throw std::logic_error("unknown family");
}

/// Re-walks one route: endpoints, every hop a real arc, weight sum, no
/// repeated node (routes are loopless by contract).
void check_route(const Graph& g, NodeId u, NodeId v, const query::Route& rt,
                 const std::string& ctx) {
  ASSERT_GE(rt.nodes.size(), 1u) << ctx;
  EXPECT_EQ(rt.nodes.front(), u) << ctx;
  EXPECT_EQ(rt.nodes.back(), v) << ctx;
  std::set<NodeId> seen;
  Weight sum = 0;
  for (std::size_t i = 0; i < rt.nodes.size(); ++i) {
    EXPECT_TRUE(seen.insert(rt.nodes[i]).second)
        << ctx << ": node " << rt.nodes[i] << " repeats (route has a loop)";
    if (i + 1 == rt.nodes.size()) break;
    const Weight w = arc_weight(g, rt.nodes[i], rt.nodes[i + 1]);
    ASSERT_NE(w, kInfDist) << ctx << ": hop " << rt.nodes[i] << "->"
                           << rt.nodes[i + 1] << " is not an edge";
    sum += w;
  }
  EXPECT_EQ(sum, rt.weight) << ctx << ": weight sum != reported weight";
}

/// Checks a route against the constraints it was answered under.
void check_constraints(const query::Route& rt, const query::RouteConstraints& c,
                       const std::string& ctx) {
  if (c.max_hops != 0) {
    EXPECT_LE(rt.hops(), c.max_hops) << ctx;
  }
  for (const NodeId x : c.avoid_nodes) {
    for (const NodeId y : rt.nodes) EXPECT_NE(x, y) << ctx;
  }
  for (const auto& [a, b] : c.avoid_edges) {
    for (std::size_t i = 0; i + 1 < rt.nodes.size(); ++i) {
      const bool fwd = rt.nodes[i] == a && rt.nodes[i + 1] == b;
      const bool rev = rt.nodes[i] == b && rt.nodes[i + 1] == a;
      EXPECT_FALSE(fwd || rev) << ctx << ": route uses avoided edge " << a
                               << "-" << b;
    }
  }
}

struct QueryCase {
  QFamily family;
  Solver solver;
};

class QueryDifferential : public ::testing::TestWithParam<QueryCase> {};

TEST_P(QueryDifferential, MatchesSequentialReferences) {
  const QueryCase& c = GetParam();
  OracleBuildOptions opts;
  opts.solver = c.solver;
  std::uint64_t cases = 0;
  for (NodeId n = 6; n <= 14; n += 4) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = make_qfamily(c.family, n, seed * 41 + n);
      ++cases;
      std::ostringstream tag;
      tag << qfamily_name(c.family) << "/" << solver_name(c.solver)
          << " n=" << n << " seed=" << seed;
      const std::string ctx = replay_payload(g, tag.str());

      QueryService svc(build_oracle(g, opts));
      svc.enable_analytics(std::make_shared<const Graph>(g));
      ASSERT_TRUE(svc.snapshot()->exact()) << ctx;
      ASSERT_TRUE(svc.snapshot()->has_paths()) << ctx;
      const NodeId nn = g.node_count();
      // The scaled solver is exact on distances but its closure breaks
      // weight ties in scaled order, not the canonical (hops, min-parent)
      // order, so route *node sequences* may legitimately differ from the
      // references on tied graphs.  Weights are still uniquely determined
      // (route_less is weight-primary), so for that solver the comparison
      // drops to weight equality; the re-walk and constraint checks keep
      // the routes honest either way.
      const bool canonical = c.solver != Solver::kScaled;

      // Whole-graph report: exact equality with the reference.
      {
        Query q;
        q.type = QueryType::kReport;
        const QueryResult r = svc.query(q);
        ASSERT_TRUE(r.ok) << ctx << " " << r.error;
        EXPECT_TRUE(r.report == seq::graph_report(g)) << ctx << ": report";
      }

      // Betweenness, full and sampled: same sources by construction, scores
      // equal up to floating-point accumulation.
      for (const std::uint32_t samples : {0u, static_cast<std::uint32_t>(
                                                  nn / 2)}) {
        Query q;
        q.type = QueryType::kBetweenness;
        q.samples = samples;
        const QueryResult r = svc.query(q);
        ASSERT_TRUE(r.ok) << ctx << " " << r.error;
        const std::vector<double> want =
            seq::betweenness(g, query::betweenness_sources(nn, samples));
        ASSERT_EQ(r.centrality.size(), want.size()) << ctx;
        for (NodeId i = 0; i < nn; ++i) {
          EXPECT_NEAR(r.centrality[i], want[i],
                      1e-9 * std::max(1.0, want[i]))
              << ctx << ": bc[" << i << "] samples=" << samples;
        }
      }

      // k shortest paths: exact route-list equality, every route re-walked.
      for (const NodeId u : {NodeId{0}, nn / 2, nn - 1}) {
        for (NodeId v = 0; v < nn; ++v) {
          Query q;
          q.type = QueryType::kKPaths;
          q.u = u;
          q.v = v;
          q.k = 3;
          const QueryResult r = svc.query(q);
          ASSERT_TRUE(r.ok) << ctx << " " << r.error;
          const auto want = seq::k_shortest_paths(g, u, v, 3);
          const std::string at =
              ctx + " kpath " + std::to_string(u) + "->" + std::to_string(v);
          ASSERT_EQ(r.routes.size(), want.size()) << at;
          for (std::size_t i = 0; i < want.size(); ++i) {
            if (canonical) {
              ASSERT_TRUE(r.routes[i] == want[i])
                  << at << ": route " << i << " differs";
            } else {
              ASSERT_EQ(r.routes[i].weight, want[i].weight)
                  << at << ": route " << i << " weight differs";
            }
            check_route(g, u, v, r.routes[i], at);
          }
        }
      }

      // Constrained routes: several constraint shapes per pair, exact
      // optional<Route> equality plus constraint-satisfaction re-walks.
      for (const NodeId u : {NodeId{0}, nn - 1}) {
        for (NodeId v = 0; v < nn; ++v) {
          std::vector<query::RouteConstraints> variants(3);
          variants[1].max_hops = 2;
          variants[2].avoid_nodes = {static_cast<NodeId>((u + v) / 2)};
          variants[2].avoid_edges = {
              {u, static_cast<NodeId>((v + 1) % nn)}};
          for (std::size_t ci = 0; ci < variants.size(); ++ci) {
            Query q;
            q.type = QueryType::kRoute;
            q.u = u;
            q.v = v;
            q.constraints = variants[ci];
            const QueryResult r = svc.query(q);
            ASSERT_TRUE(r.ok) << ctx << " " << r.error;
            const auto want = seq::constrained_route(g, u, v, variants[ci]);
            const std::string at = ctx + " route " + std::to_string(u) +
                                   "->" + std::to_string(v) + " variant " +
                                   std::to_string(ci);
            ASSERT_EQ(r.feasible, want.has_value()) << at;
            if (want) {
              ASSERT_EQ(r.routes.size(), 1u) << at;
              if (canonical) {
                ASSERT_TRUE(r.routes.front() == *want) << at;
              } else {
                ASSERT_EQ(r.routes.front().weight, want->weight) << at;
              }
              check_route(g, u, v, r.routes.front(), at);
              check_constraints(r.routes.front(), variants[ci], at);
            }
          }
        }
      }
    }
  }
  // 3 sizes x 4 seeds per (family, solver); 25 params -> 300 graphs.
  EXPECT_GE(cases, 12u);
}

std::vector<QueryCase> all_query_cases() {
  std::vector<QueryCase> out;
  for (const QFamily f : {QFamily::kPath, QFamily::kGrid, QFamily::kRandom,
                          QFamily::kZeroCycle, QFamily::kRmat}) {
    // The five exact path-capable solvers; approx is excluded because the
    // analytics families require exact distances and a next-hop table.
    for (const Solver s : {Solver::kPipelined, Solver::kBlocker,
                           Solver::kScaled, Solver::kReference,
                           Solver::kBellmanFord}) {
      out.push_back({f, s});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Families, QueryDifferential, ::testing::ValuesIn(all_query_cases()),
    [](const ::testing::TestParamInfo<QueryCase>& param_info) {
      return std::string(qfamily_name(param_info.param.family)) + "_" +
             solver_name(param_info.param.solver);
    });

TEST(SolverPropertyReplay, PayloadRoundTrips) {
  // The failure message's replay payload must parse back to the same graph,
  // otherwise a red case cannot actually be replayed.
  const Graph g = make_family(Family::kRandom, 9, 42);
  std::ostringstream os;
  graph::write_graph(os, g);
  std::istringstream is(os.str());
  const Graph back = graph::read_graph(is);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto a = g.out_edges(v);
    const auto b = back.out_edges(v);
    ASSERT_EQ(a.size(), b.size()) << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to) << v;
      EXPECT_EQ(a[i].weight, b[i].weight) << v;
    }
  }
}

}  // namespace
}  // namespace dapsp::service
