// Serving workload serve_rebuild: a closed loop on one client thread that
// encodes binary analytics frames (kpath, route, dist BATCH, report, bc),
// passes them through serve::wire::serve_binary on one QueryService,
// decodes the reply with read_response and checks every answer, while a
// writer thread rebuilds and swaps the snapshot once per second.  The timed
// operation is one round of frames.
//
// A traced run alternates untraced and traced request groups (and
// rebuilds), so the same run reports the tracing overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "query/types.hpp"
#include "seq/centrality.hpp"
#include "serve/sharded_oracle.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/wire.hpp"
#include "service/query_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dapsp::graph::Graph;
using dapsp::graph::kInfDist;
using dapsp::graph::NodeId;
using dapsp::graph::Weight;
using dapsp::query::Route;
using dapsp::serve::ShardedOracle;
using dapsp::service::Query;
using dapsp::service::QueryResult;
using dapsp::service::QueryService;
using dapsp::service::QueryType;
using dapsp::util::Xoshiro256;
namespace wire = dapsp::serve::wire;

constexpr std::size_t kShards = 4;
/// One client thread: two clients in one process measured each other as
/// much as the server.
constexpr std::size_t kClients = 1;
const dapsp::service::OracleBuildOptions kRefBuild{
    dapsp::service::Solver::kReference};

/// Closure plus the graph it was built from.
struct Served {
  std::shared_ptr<const Graph> g;
  std::shared_ptr<ShardedOracle> closure;
};

/// The served graph does not depend on --seed, which draws the query
/// stream: kpath and route costs differ between RMAT graphs by more than
/// the host noise, while thousands of queries per run average their own
/// differences out.
constexpr std::uint64_t kGraphSeed = 1;

Served make_served(const Context& ctx, std::uint32_t scale, SpanLog& log) {
  Served s;
  {
    Scope sp(log, "graph.gen");
    s.g = std::make_shared<const Graph>(
        dapsp::graph::rmat(ctx.tiny ? 6 : scale, 8, {0, 8, 0.2}, kGraphSeed));
  }
  Scope sp(log, "serve.build_sharded_oracle");
  s.closure = dapsp::serve::build_sharded_oracle(*s.g, kRefBuild, kShards);
  return s;
}

/// Repeats the setup, reporting the median time; keeps the last state.
Served setup(const Context& ctx, std::uint32_t scale, SpanLog& log,
             Result& out) {
  Served s;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps(ctx); ++r) {
    s = Served{};  // release the previous closure before building the next
    const auto t0 = Clock::now();
    Scope sp(log, "bench.setup");
    s = make_served(ctx, scale, log);
    setup_s.push_back(seconds_since(t0));
  }
  out.end_to_end["setup_s"] = median(setup_s);
  return s;
}

/// `nodes` is a loopless u -> v walk over arcs of g weighing `weight`.
void check_route(const Graph& g, const std::vector<NodeId>& nodes, NodeId u,
                 NodeId v, Weight weight, const char* what) {
  check(!nodes.empty() && nodes.front() == u && nodes.back() == v,
        std::string(what) + ": route does not join its endpoints");
  Weight sum = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto w = g.arc_weight(nodes[i - 1], nodes[i]);
    check(w.has_value(), std::string(what) + ": route uses a missing arc");
    sum += *w;
  }
  check(sum == weight, std::string(what) + ": route weight is wrong");
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        std::string(what) + ": route repeats a node");
}

/// One frame through the binary server: serve_binary, then read_response.
/// Adds the reply's size to *reply_bytes.
wire::Response round_trip(const QueryService& svc, const std::string& req,
                          SpanLog& log, std::uint64_t* reply_bytes) {
  std::istringstream in(req);
  std::ostringstream out;
  {
    Scope s(log, "serve.serve_binary");
    wire::serve_binary(svc, in, out);
  }
  std::istringstream rin(out.str());
  *reply_bytes += rin.str().size();
  Scope s(log, "serve.decode");
  auto r = wire::read_response(rin);
  check(r.has_value(), "server sent no response frame");
  return std::move(*r);
}

/// First check failure seen on any thread; stops the others.
struct Abort {
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::string error;  // guarded by mu

  template <typename F>
  void guard(F&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::lock_guard lock(mu);
      if (error.empty()) error = e.what();
      stop = true;
    }
  }
  void rethrow() {
    if (!error.empty()) throw CheckFailure(error);
  }
};

/// A traced run alternates spans off and on, frame by frame.
struct ClientLogs {
  Tracer off{false};
  SpanLog untraced;
  SpanLog traced;
  ClientLogs(Tracer& t, std::uint32_t thread)
      : untraced(off, thread), traced(t, thread) {}
  SpanLog& pick(std::uint64_t i, bool trace) {
    return trace && i % 2 ? traced : untraced;
  }
};

void add_latency_figures(Result& out, const std::string& prefix,
                         const std::vector<double>& ms) {
  out.figure(prefix + "_count", static_cast<double>(ms.size()), "count");
  out.figure(prefix + "_p50_ms", median(ms), "ms");
  out.figure(prefix + "_tail_ms", tail(ms).first, "ms");
  out.figure(prefix + "_tail_pct", tail(ms).second, "%");
  out.figure(prefix + "_p99_ms", tail(ms, 99.0).first, "ms");
  out.figure(prefix + "_p99_pct", tail(ms, 99.0).second, "%");
}

}  // namespace

// --- serve_rebuild -----------------------------------------------------------

namespace {

/// Expected report, computed directly from the closure rows.
dapsp::query::GraphReport closure_report(const ShardedOracle& c) {
  const NodeId n = c.node_count();
  dapsp::query::GraphReport rep;
  rep.per_source.resize(n);
  bool first = true;
  for (NodeId s = 0; s < n; ++s) {
    auto& row = rep.per_source[s];
    for (NodeId t = 0; t < n; ++t) {
      const Weight d = c.dist(s, t);
      if (t == s || d == kInfDist) continue;
      row.eccentricity = std::max(row.eccentricity, d);
      row.farness += d;
      ++row.reached;
    }
    rep.reachable_pairs += row.reached;
    rep.radius = first ? row.eccentricity
                       : std::min(rep.radius, row.eccentricity);
    rep.diameter = std::max(rep.diameter, row.eccentricity);
    first = false;
  }
  return rep;
}

}  // namespace

Result run_serve_rebuild(const Context& ctx) {
  constexpr std::uint32_t kK = 4, kHops = 64, kBcSamples = 8;
  constexpr std::size_t kPairsPerRound = 16, kDistBatch = 16;
  constexpr double kRebuildPeriod = 1.0;
  constexpr auto kRebuildGap = std::chrono::milliseconds(250);
  SpanLog log(*ctx.tracer, 0);
  Result out;
  const Served s = setup(ctx, 8, log, out);
  const Graph& g = *s.g;
  const NodeId n = g.node_count();
  const ShardedOracle& ref = *s.closure;
  const dapsp::query::GraphReport want_report = closure_report(ref);
  const std::vector<double> want_bc = dapsp::seq::betweenness(
      g, dapsp::query::betweenness_sources(n, kBcSamples));

  dapsp::service::QueryServiceConfig cfg;
  cfg.threads = 1;
  QueryService svc(s.closure, cfg);
  svc.enable_analytics(s.g);
  dapsp::serve::SnapshotManager manager(svc, g, kRefBuild, kShards);

  enum Kind { kKPath, kRouteReq, kDistReq, kReportReq, kBcReq, kKinds };
  struct ClientOut {
    std::vector<double> ms[kKinds];
    std::vector<double> pair_ms, traced_pair_ms, round_ms;
    std::uint64_t requests = 0, failed = 0, routes = 0, fallbacks = 0;
    std::uint64_t reply_bytes = 0;
  };
  std::vector<ClientOut> outs(kClients);
  Abort abort;
  const auto start = Clock::now();

  const auto client = [&](std::size_t c) {
    ClientLogs logs(*ctx.tracer, static_cast<std::uint32_t>(c + 1));
    ClientOut& co = outs[c];
    Xoshiro256 rng(ctx.seed * 1000003 + 17 + c);
    std::string req;
    std::uint64_t group = 0;
    SpanLog* sl = &logs.untraced;  // alternates per request group
    double group_ms = 0.0, round_ms = 0.0;
    // One timed request: encode, round trip, record; the reply is checked
    // by the caller.
    const auto send = [&](Kind kind, const auto& encode) {
      const auto t0 = Clock::now();
      wire::Response resp;
      {
        Scope f(*sl, "bench.frame");
        {
          Scope e(*sl, "serve.encode");
          req.clear();
          encode(req);
        }
        resp = round_trip(svc, req, *sl, &co.reply_bytes);
      }
      const double ms = seconds_since(t0) * 1e3;
      group_ms += ms;
      round_ms += ms;
      if (!sl->on()) co.ms[kind].push_back(ms);
      ++co.requests;
      const bool ok = resp.kind == wire::Response::Kind::kBatch
                          ? std::all_of(resp.results.begin(),
                                        resp.results.end(),
                                        [](const QueryResult& r) {
                                          return r.ok;
                                        })
                          : resp.kind != wire::Response::Kind::kError &&
                                resp.result.ok;
      if (!ok) ++co.failed;
      return ok ? std::optional<wire::Response>(std::move(resp))
                : std::nullopt;
    };
    const auto node = [&] { return static_cast<NodeId>(rng.below(n)); };

    // The timed operation is one round: kPairsPerRound pair groups (kpath,
    // route and a dist batch for one random (u, v)), then report and bc.
    // Pair groups alone are bimodal (a route takes the closure fast path
    // or the constrained search), so their median is not steady.
    const auto next_group = [&] {
      sl = &logs.pick(group++, ctx.trace);
      group_ms = 0.0;
    };
    CoreRotation cores;
    while (!abort.stop && (group == 0 || seconds_since(start) < ctx.seconds)) {
      cores.next();
      round_ms = 0.0;
      for (std::size_t p = 0; p < kPairsPerRound; ++p) {
        next_group();
        const NodeId u = node(), v = node();
        const Weight d = ref.dist(u, v);
        const auto canon = ref.path(u, v);

        if (auto r = send(kKPath, [&](std::string& b) {
              wire::append_kpath_request(b, u, v, kK);
            })) {
          const auto& routes = r->result.routes;
          check(routes.size() <= kK, "kpath returned more than k routes");
          check(d == kInfDist ? routes.empty() : !routes.empty() &&
                                                     routes[0].weight == d,
                "kpath first route does not weigh dist(u,v)");
          for (std::size_t i = 0; i < routes.size(); ++i) {
            check_route(g, routes[i].nodes, u, v, routes[i].weight, "kpath");
            check(i == 0 || (routes[i - 1].weight <= routes[i].weight &&
                             routes[i - 1].nodes != routes[i].nodes),
                  "kpath routes out of order or repeated");
          }
        }

        // Avoid an interior node of the canonical path half the time, so
        // both the closure fast path and the constrained search run.
        dapsp::query::RouteConstraints rc;
        rc.max_hops = kHops;
        NodeId avoid = node();
        if (canon && canon->size() > 2 && rng.below(2) == 0) {
          avoid = (*canon)[1 + rng.below(canon->size() - 2)];
        }
        rc.avoid_nodes = {avoid};
        const bool canon_ok =
            canon && canon->size() - 1 <= kHops &&
            std::find(canon->begin(), canon->end(), avoid) == canon->end();
        ++co.routes;
        if (!canon_ok) ++co.fallbacks;
        if (auto r = send(kRouteReq, [&](std::string& b) {
              wire::append_route_request(b, u, v, rc);
            })) {
          if (canon_ok) {
            check(r->result.feasible && r->result.dist == d,
                  "route ignores a feasible canonical path");
          }
          if (r->result.feasible) {
            const Route& rt = r->result.routes.front();
            check_route(g, rt.nodes, u, v, rt.weight, "route");
            check(rt.hops() <= kHops && rt.weight >= d &&
                      std::find(rt.nodes.begin(), rt.nodes.end(), avoid) ==
                          rt.nodes.end(),
                  "route violates its constraints");
          }
        }

        std::vector<Query> qs(kDistBatch);
        for (Query& q : qs) {
          q.u = node();
          q.v = node();
        }
        if (auto r = send(kDistReq, [&](std::string& b) {
              wire::append_batch_request(b, qs);
            })) {
          check(r->results.size() == qs.size(), "batch reply has wrong count");
          for (std::size_t i = 0; i < qs.size(); ++i) {
            check(r->results[i].dist == ref.dist(qs[i].u, qs[i].v),
                  "dist differs from the closure");
          }
        }
        (sl->on() ? co.traced_pair_ms : co.pair_ms).push_back(group_ms);
      }
      next_group();
      if (auto r = send(kReportReq, [](std::string& b) {
            wire::append_report_request(b);
          })) {
        check(r->result.report == want_report,
              "report differs from the closure");
      }
      if (auto r = send(kBcReq, [&](std::string& b) {
            wire::append_bc_request(b, kBcSamples);
          })) {
        const auto& bc = r->result.centrality;
        check(bc.size() == want_bc.size(), "bc has wrong size");
        for (std::size_t i = 0; i < bc.size(); ++i) {
          check(std::abs(bc[i] - want_bc[i]) <=
                    1e-9 * std::max(1.0, std::abs(want_bc[i])),
                "bc differs from seq::betweenness");
        }
      }
      co.round_ms.push_back(round_ms);
    }
  };

  // Writer: one rebuild per period, timed from the request to its
  // publication.  A rebuild starts no sooner than kRebuildGap after the
  // previous publication, so the retired snapshot is released before the
  // next build allocates and peak_rss_mb does not depend on build speed.
  const auto at = [&start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  std::vector<double> rebuild_s, wait_s;
  const auto writer = [&] {
    ClientLogs logs(*ctx.tracer, static_cast<std::uint32_t>(kClients + 1));
    auto earliest = start;
    for (std::uint64_t i = 0; !abort.stop; ++i) {
      const auto due = std::max(
          at(kRebuildPeriod * (static_cast<double>(i) + 0.25)), earliest);
      if (i > 0 && due >= at(ctx.seconds)) break;
      std::this_thread::sleep_until(due);
      SpanLog& sl = logs.pick(i, ctx.trace);
      ++out.attempted;
      const auto t0 = Clock::now();
      if (!sl.on()) {
        const auto outcome = manager.rebuild_now();
        const double dt = seconds_since(t0);
        earliest = Clock::now() + kRebuildGap;
        if (!outcome.ok) {
          ++out.failed;
          continue;
        }
        rebuild_s.push_back(dt);
        wait_s.push_back(dt - static_cast<double>(outcome.build_ns) * 1e-9);
      } else {
        // The calls rebuild_now makes on its worker, each in a span.
        Scope r(sl, "bench.rebuild");
        std::shared_ptr<ShardedOracle> next;
        {
          Scope b(sl, "serve.build_sharded_oracle");
          next = dapsp::serve::build_sharded_oracle(g, kRefBuild, kShards);
        }
        const auto build_ns = static_cast<std::uint64_t>(
            seconds_since(t0) * 1e9);
        Scope sw(sl, "service.swap_snapshot");
        svc.swap_snapshot(std::move(next), build_ns);
        earliest = Clock::now() + kRebuildGap;
      }
      const auto snap = svc.snapshot();
      for (NodeId u = 0; u < n; u += 64) {
        for (NodeId v = 0; v < n; ++v) {
          check(snap->dist(u, v) == ref.dist(u, v),
                "rebuilt closure differs from the first build");
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { abort.guard([&] { client(c); }); });
  }
  threads.emplace_back([&] { abort.guard(writer); });
  for (auto& t : threads) t.join();
  const double wall = seconds_since(start);
  abort.rethrow();

  ClientOut all;
  for (ClientOut& co : outs) {
    for (int k = 0; k < kKinds; ++k) {
      all.ms[k].insert(all.ms[k].end(), co.ms[k].begin(), co.ms[k].end());
    }
    all.pair_ms.insert(all.pair_ms.end(), co.pair_ms.begin(),
                       co.pair_ms.end());
    all.round_ms.insert(all.round_ms.end(), co.round_ms.begin(),
                        co.round_ms.end());
    all.traced_pair_ms.insert(all.traced_pair_ms.end(),
                              co.traced_pair_ms.begin(),
                              co.traced_pair_ms.end());
    all.reply_bytes += co.reply_bytes;
    all.routes += co.routes;
    all.fallbacks += co.fallbacks;
    out.attempted += co.requests;
    out.failed += co.failed;
  }
  const double answered = static_cast<double>(out.attempted - out.failed);
  out.figure("analytics_qps", answered / wall, "1/s");
  add_latency_figures(out, "kpath", all.ms[kKPath]);
  add_latency_figures(out, "route", all.ms[kRouteReq]);
  add_latency_figures(out, "dist_batch", all.ms[kDistReq]);
  add_latency_figures(out, "report", all.ms[kReportReq]);
  add_latency_figures(out, "bc", all.ms[kBcReq]);
  out.figure("rebuilds", static_cast<double>(rebuild_s.size()), "count");
  out.figure("rebuild_s", median(rebuild_s), "s");

  add_latency_figures(out, "pair", all.pair_ms);
  add_latency_figures(out, "round", all.round_ms);
  out.end_to_end["op_p50_ms"] = median(all.round_ms);
  out.end_to_end["op_tail_ms"] = tail(all.round_ms).first;
  out.end_to_end["items_per_s"] = answered / wall;
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  if (!ctx.trace) return out;

  log.flush();
  const Ledger l = ctx.tracer->ledger();
  const auto st = svc.stats();
  const auto mean_ms = [&st](QueryType t) {
    return st.of(t).mean_ns() * 1e-6;
  };
  auto& pl = out.per_layer;
  pl["graph.arcs"] = static_cast<double>(g.edge_count());
  pl["graph.gen_s"] = l.mean_s("graph.gen");
  pl["serve.sharded_build_s"] = l.mean_s("serve.build_sharded_oracle");
  pl["serve.swap_ms"] = l.mean_s("service.swap_snapshot") * 1e3;
  pl["serve.rebuild_s"] = median(rebuild_s);
  pl["serve.rebuild_wait_s"] = median(wait_s);
  pl["service.closure_mb"] = static_cast<double>(ref.memory_bytes()) / 1e6;
  pl["serve.frame_server_ms"] = l.mean_s("serve.serve_binary") * 1e3;
  pl["serve.encode_us"] = l.mean_s("serve.encode") * 1e6;
  pl["serve.decode_us"] = l.mean_s("serve.decode") * 1e6;
  pl["serve.response_bytes"] = static_cast<double>(all.reply_bytes) /
                               static_cast<double>(out.attempted);
  pl["query.kpath_ms"] = mean_ms(QueryType::kKPaths);
  pl["query.route_ms"] = mean_ms(QueryType::kRoute);
  pl["query.report_ms"] = mean_ms(QueryType::kReport);
  pl["query.bc_ms"] = mean_ms(QueryType::kBetweenness);
  pl["query.route_fallback_ratio"] =
      static_cast<double>(all.fallbacks) / static_cast<double>(all.routes);
  pl["trace.overhead_ms"] =
      median(all.traced_pair_ms) - median(all.pair_ms);
  return out;
}

}  // namespace perfbench
