// Tests for the distance-oracle service: oracle correctness against the
// sequential Dijkstra oracle (including zero-weight-edge graphs, the paper's
// distinguishing capability), query-service thread determinism, the path
// cache, the text/JSON protocol, and the stats counters.
#include <gtest/gtest.h>

#include <sstream>

#include "core/paths.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "serve/session.hpp"
#include "service/query_service.hpp"
#include "seq/dijkstra.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::Weight;

/// Path must start at u, end at v, follow real arcs, and cost exactly
/// dist(u, v).
void expect_valid_path(const Graph& g, const DistanceOracle& o, NodeId u,
                       NodeId v) {
  const auto p = o.path(u, v);
  ASSERT_TRUE(p.has_value()) << u << "->" << v;
  EXPECT_EQ(p->front(), u);
  EXPECT_EQ(p->back(), v);
  const auto w = core::path_weight(g, *p);
  ASSERT_TRUE(w.has_value()) << "path uses a non-existent arc " << u << "->"
                             << v;
  EXPECT_EQ(*w, o.dist(u, v)) << u << "->" << v;
}

void expect_matches_dijkstra(const Graph& g, const DistanceOracle& o) {
  const NodeId n = g.node_count();
  ASSERT_EQ(o.node_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    const auto dj = seq::dijkstra(g, u);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(o.dist(u, v), dj.dist[v]) << u << "->" << v;
      if (u == v) continue;
      if (dj.dist[v] == kInfDist) {
        EXPECT_EQ(o.next_hop(u, v), kNoNode);
        EXPECT_FALSE(o.path(u, v).has_value());
      } else {
        expect_valid_path(g, o, u, v);
      }
    }
  }
}

TEST(Oracle, MatchesDijkstraOnRandomZeroWeightGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = graph::erdos_renyi(16, 0.2, {0, 7, 0.35}, 5000 + seed);
    for (const Solver s : {Solver::kPipelined, Solver::kBlocker,
                           Solver::kScaled, Solver::kReference}) {
      SCOPED_TRACE(std::string("solver=") + solver_name(s) +
                   " seed=" + std::to_string(seed));
      const DistanceOracle o = build_oracle(g, {s, 0, 0.5});
      EXPECT_TRUE(o.exact());
      EXPECT_TRUE(o.has_paths());
      expect_matches_dijkstra(g, o);
    }
  }
}

TEST(Oracle, ZeroWeightPlateauPathsTerminate) {
  // A zero-weight clique plus a weighted tail: next hops across the plateau
  // must make hop progress, not cycle.
  GraphBuilder b(6, /*directed=*/false);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) b.add_edge(u, v, 0);
  }
  b.add_edge(4, 5, 3);
  const Graph g = std::move(b).build();
  for (const Solver s :
       {Solver::kPipelined, Solver::kBlocker, Solver::kReference}) {
    SCOPED_TRACE(solver_name(s));
    const DistanceOracle o = build_oracle(g, {s, 0, 0.5});
    expect_matches_dijkstra(g, o);
  }
}

TEST(Oracle, BlockerParentsOnZeroHeavyGraphRegression) {
  // Regression: the blocker parent fix-up used to re-derive parents from
  // distance equality alone, which let two equal-distance nodes joined by a
  // zero-weight edge adopt each other (a parent 2-cycle).  This graph
  // triggered it.
  const Graph g = graph::erdos_renyi(32, 0.15, {0, 6, 0.2}, 7);
  const DistanceOracle o = build_oracle(g, {Solver::kBlocker, 0, 0.5});
  expect_matches_dijkstra(g, o);
}

TEST(Oracle, DirectedGraphs) {
  const Graph g = graph::cycle(7, {1, 4, 0.0}, 31, /*directed=*/true);
  const DistanceOracle o = build_oracle(g, {Solver::kPipelined, 0, 0.5});
  expect_matches_dijkstra(g, o);
}

TEST(Oracle, UnreachablePairs) {
  GraphBuilder b(5, /*directed=*/false);
  b.add_edge(0, 1, 2).add_edge(1, 2, 2).add_edge(3, 4, 1);
  const Graph g = std::move(b).build();
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  EXPECT_EQ(o.dist(0, 4), kInfDist);
  EXPECT_EQ(o.next_hop(0, 4), kNoNode);
  EXPECT_FALSE(o.path(0, 4).has_value());
  expect_valid_path(g, o, 3, 4);
}

TEST(Oracle, SelfPathIsTrivial) {
  const Graph g = graph::path(4, {1, 1, 0.0}, 1);
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  const auto p = o.path(2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, std::vector<NodeId>{2});
  EXPECT_EQ(o.dist(2, 2), 0);
}

TEST(Oracle, ApproxIsDistanceOnlyWithinRatio) {
  const double eps = 0.5;
  const Graph g = graph::erdos_renyi(14, 0.25, {0, 6, 0.3}, 77);
  const DistanceOracle o = build_oracle(g, {Solver::kApprox, 0, eps});
  EXPECT_FALSE(o.exact());
  EXPECT_FALSE(o.has_paths());
  EXPECT_EQ(o.next_hop(0, 1), kNoNode);
  EXPECT_FALSE(o.path(0, 1).has_value());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto dj = seq::dijkstra(g, u);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (dj.dist[v] == kInfDist) {
        EXPECT_EQ(o.dist(u, v), kInfDist);
        continue;
      }
      EXPECT_GE(o.dist(u, v), dj.dist[v]);
      EXPECT_LE(static_cast<double>(o.dist(u, v)),
                (1.0 + eps) * static_cast<double>(dj.dist[v]) + 1e-9);
    }
  }
}

TEST(Oracle, MakeOracleRejectsBadInput) {
  EXPECT_THROW(make_oracle({}, {}, {"x", true, {}, {}}), std::logic_error);
  EXPECT_THROW(make_oracle({{0, 1}, {1}}, {}, {"x", true, {}, {}}),
               std::logic_error);
  // Parent 2-cycle must be detected, not looped on.
  std::vector<std::vector<Weight>> dist{{0, 1, 1}, {1, 0, 0}, {1, 0, 0}};
  std::vector<std::vector<NodeId>> parent{
      {kNoNode, 2, 1}, {2, kNoNode, 0}, {1, 0, kNoNode}};
  EXPECT_THROW(make_oracle(dist, parent, {"x", true, {}, {}}), std::logic_error);
  // A short parent row behind a full first row is rejected before any row
  // is read past its end.
  EXPECT_THROW(make_oracle({{0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
                           {{kNoNode, 0, 0}, {1}, {2, 2, kNoNode}},
                           {"x", true, {}, {}}),
               std::logic_error);
}

// ---------------------------------------------------------------------------

std::vector<Query> mixed_batch(NodeId n, std::size_t count) {
  std::vector<Query> qs(count);
  for (std::size_t i = 0; i < count; ++i) {
    qs[i].type = static_cast<QueryType>(i % kQueryTypeCount);
    qs[i].u = static_cast<NodeId>((i * 7) % n);
    qs[i].v = static_cast<NodeId>((i * 13 + 3) % n);
  }
  return qs;
}

TEST(QueryService, BatchedResultsBitIdenticalAcrossThreadCounts) {
  const Graph g = graph::erdos_renyi(24, 0.2, {0, 5, 0.3}, 99);
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  const auto batch = mixed_batch(24, 2000);

  QueryServiceConfig one;
  one.threads = 1;
  const QueryService svc1(o, one);
  QueryServiceConfig many;
  many.threads = 4;
  const QueryService svc4(o, many);

  const auto r1 = svc1.query_batch(batch);
  const auto r4 = svc4.query_batch(batch);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i], r4[i]) << "query " << i;
  }
}

TEST(QueryService, ValidatesIdsAndUnsupportedQueries) {
  const Graph g = graph::path(4, {1, 2, 0.0}, 3);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  const auto bad = svc.query({QueryType::kDist, 0, 99});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("out of range"), std::string::npos);

  const QueryService approx(build_oracle(g, {Solver::kApprox, 0, 0.5}));
  const auto unsupported = approx.query({QueryType::kPath, 0, 3});
  EXPECT_FALSE(unsupported.ok);
  EXPECT_NE(unsupported.error.find("distance-only"), std::string::npos);
  EXPECT_EQ(approx.stats().total_errors(), 1u);
}

TEST(QueryService, PathCacheHitsAndEvictions) {
  const Graph g = graph::erdos_renyi(16, 0.25, {1, 5, 0.0}, 11);
  QueryServiceConfig cfg;
  cfg.threads = 1;
  cfg.path_cache_capacity = 2;
  cfg.cache_shards = 1;
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}), cfg);

  const Query q{QueryType::kPath, 0, 5};
  const auto first = svc.query(q);
  const auto second = svc.query(q);
  EXPECT_EQ(first, second);
  ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_evictions, 0u);

  // Two more distinct pairs overflow capacity 2 -> one eviction, and the
  // evicted entry misses again.
  (void)svc.query({QueryType::kPath, 0, 6});
  (void)svc.query({QueryType::kPath, 0, 7});
  st = svc.stats();
  EXPECT_EQ(st.cache_evictions, 1u);
  EXPECT_EQ(svc.query(q).path, first.path);  // still correct either way
}

TEST(QueryService, StatsCountersPerType) {
  const Graph g = graph::path(6, {1, 3, 0.0}, 5);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  (void)svc.query({QueryType::kDist, 0, 5});
  (void)svc.query({QueryType::kDist, 5, 0});
  (void)svc.query({QueryType::kNextHop, 0, 5});
  (void)svc.query({QueryType::kPath, 0, 5});
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.of(QueryType::kDist).count(), 2u);
  EXPECT_EQ(st.of(QueryType::kNextHop).count(), 1u);
  EXPECT_EQ(st.of(QueryType::kPath).count(), 1u);
  EXPECT_EQ(st.total_queries(), 4u);
  EXPECT_EQ(st.total_errors(), 0u);
  EXPECT_GT(st.of(QueryType::kPath).total_ns(), 0u);
  const std::string s = st.summary();
  EXPECT_NE(s.find("queries=4"), std::string::npos);
  EXPECT_NE(s.find("dist[n=2"), std::string::npos);
}

TEST(QueryService, ProfiledBuildSurfacesCritpathInStats) {
  const Graph g = graph::path(24, {1, 3, 0.0}, 5);
  const DistanceOracle o =
      build_oracle(g, {Solver::kPipelined, 0, 0.5, /*critpath=*/true});
  ASSERT_FALSE(o.meta().critpath.empty());
  EXPECT_GT(o.meta().critpath.chain_len, 0u);
  EXPECT_GT(o.meta().critpath.total_ns, 0u);

  const QueryService svc(build_oracle(g, {Solver::kPipelined, 0, 0.5, true}));
  const ServiceStats st = svc.stats();
  EXPECT_FALSE(st.last_build_critpath.empty());
  EXPECT_NE(st.summary().find("critpath[runs="), std::string::npos);
  std::ostringstream os;
  obs::JsonWriter w(os);
  st.write_json(w);
  EXPECT_TRUE(obs::json_valid(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"critpath\""), std::string::npos);

  // A reference build has no engine run to profile: the flag is a no-op.
  const DistanceOracle ref =
      build_oracle(g, {Solver::kReference, 0, 0.5, true});
  EXPECT_TRUE(ref.meta().critpath.empty());
}

TEST(QueryService, StatsCompose) {
  ServiceStats a, b;
  a.of(QueryType::kDist).latency.record(50);
  a.of(QueryType::kDist).latency.record_n(105, 9);
  a.of(QueryType::kDist).errors = 1;
  a.of(QueryType::kDist).error_ns = 400;
  a.cache_hits = 3;
  b.of(QueryType::kDist).latency.record(20);
  b.of(QueryType::kDist).latency.record_n(120, 3);
  b.of(QueryType::kDist).latency.record(300);
  b.cache_misses = 2;
  b.batches = 1;
  a += b;
  EXPECT_EQ(a.of(QueryType::kDist).count(), 15u);
  EXPECT_EQ(a.of(QueryType::kDist).errors, 1u);
  EXPECT_EQ(a.of(QueryType::kDist).error_ns, 400u);
  EXPECT_EQ(a.of(QueryType::kDist).total_ns(), 50u + 9 * 105u + 20u +
                                                   3 * 120u + 300u);
  EXPECT_EQ(a.of(QueryType::kDist).min_ns(), 20u);
  EXPECT_EQ(a.of(QueryType::kDist).max_ns(), 300u);
  EXPECT_EQ(a.cache_hits, 3u);
  EXPECT_EQ(a.cache_misses, 2u);
  EXPECT_EQ(a.batches, 1u);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate(), 0.6);
}

TEST(QueryService, ErrorTimeDoesNotInflateLatency) {
  // Regression: failed queries' wall-clock used to land in total_ns without
  // a matching count, inflating mean_ns whenever errors occurred.
  const Graph g = graph::path(4, {1, 2, 0.0}, 8);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  (void)svc.query({QueryType::kDist, 0, 3});
  for (int i = 0; i < 50; ++i) {
    (void)svc.query({QueryType::kDist, 0, 99});  // out of range -> error
  }
  const ServiceStats st = svc.stats();
  const auto& dist = st.of(QueryType::kDist);
  EXPECT_EQ(dist.count(), 1u);
  EXPECT_EQ(dist.errors, 50u);
  // Exactly the one ok sample: mean == total == max, errors untangled.
  EXPECT_DOUBLE_EQ(dist.mean_ns(), static_cast<double>(dist.total_ns()));
  EXPECT_EQ(dist.max_ns(), dist.total_ns());
  EXPECT_GT(dist.error_ns, 0u);
}

TEST(QueryService, EmptyStatsRenderAsZeros) {
  // Regression: min_ns used to be a UINT64_MAX sentinel that leaked into
  // snapshots of types that never ran.
  const Graph g = graph::path(3, {1, 1, 0.0}, 9);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  const ServiceStats st = svc.stats();
  for (std::size_t i = 0; i < kQueryTypeCount; ++i) {
    const auto& t = st.per_type[i];
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.min_ns(), 0u);
    EXPECT_EQ(t.max_ns(), 0u);
    EXPECT_EQ(t.mean_ns(), 0.0);
    EXPECT_EQ(t.p99_ns(), 0u);
  }
  EXPECT_EQ(st.summary().find("18446744073709551615"), std::string::npos);
}

TEST(QueryService, LatencyQuantilesExposed) {
  const Graph g = graph::erdos_renyi(12, 0.3, {1, 4, 0.0}, 21);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  for (int i = 0; i < 200; ++i) {
    (void)svc.query({QueryType::kDist, 0, static_cast<NodeId>(i % 12)});
  }
  const ServiceStats st = svc.stats();
  const auto& dist = st.of(QueryType::kDist);
  EXPECT_EQ(dist.count(), 200u);
  EXPECT_LE(dist.min_ns(), dist.p50_ns());
  EXPECT_LE(dist.p50_ns(), dist.p90_ns());
  EXPECT_LE(dist.p90_ns(), dist.p99_ns());
  EXPECT_LE(dist.p99_ns(), dist.max_ns());
}

// ---------------------------------------------------------------------------

TEST(Protocol, ParseQuery) {
  std::string err;
  const auto q = serve::parse_query("path 3 9", &err);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, QueryType::kPath);
  EXPECT_EQ(q->u, 3u);
  EXPECT_EQ(q->v, 9u);
  EXPECT_TRUE(serve::parse_query("dist  0\t7", &err).has_value());

  EXPECT_FALSE(serve::parse_query("", &err).has_value());
  EXPECT_FALSE(serve::parse_query("dist 1", &err).has_value());
  EXPECT_FALSE(serve::parse_query("dist 1 2 3", &err).has_value());
  EXPECT_FALSE(serve::parse_query("hop 1 2", &err).has_value());
  EXPECT_NE(err.find("unknown query type"), std::string::npos);
  EXPECT_FALSE(serve::parse_query("dist -1 2", &err).has_value());
  EXPECT_FALSE(serve::parse_query("dist a b", &err).has_value());
}

TEST(Protocol, ServeStreamTextAndJson) {
  const Graph g = graph::path(5, {2, 2, 0.0}, 1);  // 0-1-2-3-4, all weight 2
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));

  std::istringstream in(
      "# comment\n\ndist 0 4\nnext 0 4\npath 0 4\nnope 1 2\nquit\ndist 0 1\n");
  std::ostringstream out;
  const int malformed =
      serve::serve_session(svc, in, out, serve::Format::kText);
  EXPECT_EQ(malformed, 1);
  const std::string text = out.str();
  EXPECT_NE(text.find("dist 0 4 = 8"), std::string::npos);
  EXPECT_NE(text.find("next 0 4 = 1 (dist 8)"), std::string::npos);
  EXPECT_NE(text.find("path 0 4 = 0 1 2 3 4 (dist 8, 4 hops)"),
            std::string::npos);
  EXPECT_NE(text.find("error:"), std::string::npos);
  // "quit" stops the stream: the trailing query is never answered.
  EXPECT_EQ(text.find("dist 0 1"), std::string::npos);

  std::istringstream jin("path 0 2\ndist 2 0\n");
  std::ostringstream jout;
  EXPECT_EQ(serve::serve_session(svc, jin, jout, serve::Format::kJson), 0);
  EXPECT_EQ(jout.str(),
            "{\"type\":\"path\",\"u\":0,\"v\":2,\"ok\":true,\"dist\":4,"
            "\"path\":[0,1,2]}\n"
            "{\"type\":\"dist\",\"u\":2,\"v\":0,\"ok\":true,\"dist\":4}\n");
}

TEST(Protocol, JsonErrorLinesEscapeUserInput) {
  // Regression: the unknown-token error echoes raw user input; a quote or
  // backslash in it used to break the JSONL stream.
  const Graph g = graph::path(3, {1, 1, 0.0}, 2);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  std::istringstream in(
      "evil\" 0 1\n"
      "back\\slash 0 1\n"
      "\"quoted\" 1 2\n");
  std::ostringstream out;
  EXPECT_EQ(serve::serve_session(svc, in, out, serve::Format::kJson), 3);
  EXPECT_TRUE(obs::jsonl_invalid_lines(out.str()).empty()) << out.str();
  EXPECT_NE(out.str().find("evil\\\""), std::string::npos);
}

TEST(Protocol, ServeJsonFuzzEveryLineParses) {
  // Every JSON-mode response line must parse, no matter how hostile the
  // input: quotes, backslashes, control bytes, huge tokens, stats requests
  // interleaved with garbage.
  const Graph g = graph::erdos_renyi(8, 0.4, {1, 3, 0.0}, 12);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  std::string input;
  const std::string nasty[] = {
      "dist 0 1",
      "path 0 7",
      "dist 0 999",
      "\"\" \"\" \"\"",
      "d\"ist 0 1",
      "\\ 0 1",
      "dist \\\" 2",
      "{\"json\":true} 0 1",
      "stats",
      std::string(300, '"') + " 1 2",
      "next 0 \x01\x02",
      "path x y",
      "stats",
  };
  for (const std::string& line : nasty) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  (void)serve::serve_session(svc, in, out, serve::Format::kJson);
  EXPECT_TRUE(obs::jsonl_invalid_lines(out.str()).empty()) << out.str();
}

TEST(Protocol, ServeJsonStatsLineIsStructured) {
  const Graph g = graph::path(4, {1, 2, 0.0}, 6);
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  std::istringstream in("dist 0 3\ndist 0 99\nstats\n");
  std::ostringstream out;
  EXPECT_EQ(serve::serve_session(svc, in, out, serve::Format::kJson), 0);
  const std::string text = out.str();
  EXPECT_TRUE(obs::jsonl_invalid_lines(text).empty()) << text;
  // The stats line is a JSON object, not a stringified summary.
  const auto pos = text.find("{\"stats\":{");
  ASSERT_NE(pos, std::string::npos) << text;
  EXPECT_NE(text.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_NE(text.find("\"errors\":1"), std::string::npos);
}

TEST(Protocol, UnreachableRendering) {
  GraphBuilder b(3, /*directed=*/false);
  b.add_edge(0, 1, 1);
  const Graph g = std::move(b).build();
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  std::ostringstream text;
  serve::write_result_text(svc.query({QueryType::kPath, 0, 2}), text);
  EXPECT_EQ(text.str(), "path 0 2 = unreachable\n");
  std::ostringstream json;
  serve::write_result_json(svc.query({QueryType::kDist, 0, 2}), json);
  EXPECT_EQ(json.str(),
            "{\"type\":\"dist\",\"u\":0,\"v\":2,\"ok\":true,\"dist\":null}\n");
}

}  // namespace
}  // namespace dapsp::service
