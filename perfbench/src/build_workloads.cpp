// Build workloads: service::build_oracle on each of eight graphs drawn from
// the seed; one such sweep is the timed operation.
//
//   congest_apsp     kPipelined (Algorithm 1 on the CONGEST simulator) on
//                    Erdős–Rényi graphs, with one engine thread.
//   reference_build  kReference (serial Dijkstra sweep) on RMAT graphs,
//                    the CLI's default --shards 1 build.
//
// The untraced run times build_oracle itself.  The traced run alternates
// that call with a decomposed build that makes the same library calls as
// build_oracle, each inside its own span, so the per-layer times add up to
// a build and the difference between the two is the tracing overhead.
#include <algorithm>
#include <string>

#include "bench.hpp"
#include "congest/engine.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"
#include "service/oracle.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using dapsp::graph::Graph;
using dapsp::graph::kInfDist;
using dapsp::graph::kNoNode;
using dapsp::graph::NodeId;
using dapsp::graph::Weight;
using dapsp::service::DistanceOracle;
using dapsp::service::Solver;

constexpr NodeId kCheckStride = 8;  ///< every 8th source row is checked
constexpr std::size_t kGraphs = 8;  ///< graphs per sweep

/// One input graph and its check rows.
struct Case {
  Graph g;
  /// seq::dijkstra rows of sources 0, 8, 16, ...
  std::vector<std::vector<Weight>> rows;
};

/// The run's graphs: kGraphs graphs drawn from the seed, so that one
/// graph's cost does not set the run's figures.
std::vector<Case> make_input(const Context& ctx, Solver solver,
                             SpanLog& log) {
  std::vector<Case> cases(kGraphs);
  for (std::size_t i = 0; i < kGraphs; ++i) {
    Case& c = cases[i];
    const std::uint64_t seed = ctx.seed * kGraphs + i;
    {
      Scope s(log, "graph.gen");
      if (solver == Solver::kPipelined) {
        const NodeId n = ctx.tiny ? 32 : 128;
        c.g = dapsp::graph::erdos_renyi(n, 4.0 / n, {0, 6, 0.2}, seed);
      } else {
        const std::uint32_t scale = ctx.tiny ? 6 : 8;
        c.g = dapsp::graph::rmat(scale, 8, {0, 8, 0.2}, seed);
      }
    }
    for (NodeId src = 0; src < c.g.node_count(); src += kCheckStride) {
      Scope s(log, "seq.dijkstra");
      c.rows.push_back(dapsp::seq::dijkstra(c.g, src).dist);
    }
  }
  return cases;
}

/// Distances of every checked row equal seq::dijkstra, and every next hop
/// is an arc that starts a shortest path.
void check_oracle(const Case& in, const DistanceOracle& o) {
  const Graph& g = in.g;
  const NodeId n = g.node_count();
  check(o.node_count() == n && o.has_paths(), "oracle shape");
  for (std::size_t i = 0; i < in.rows.size(); ++i) {
    const NodeId s = static_cast<NodeId>(i) * kCheckStride;
    const auto row = o.dist_row(s);
    check(std::equal(row.begin(), row.end(), in.rows[i].begin()),
          "dist row " + std::to_string(s) + " differs from seq::dijkstra");
    for (NodeId v = 0; v < n; ++v) {
      const NodeId hop = o.next_hop(s, v);
      if (v == s || row[v] == kInfDist) {
        check(hop == kNoNode, "next hop where none exists");
        continue;
      }
      const auto w = g.arc_weight(s, hop);
      check(hop < n && w && *w + o.dist(hop, v) == row[v],
            "next hop " + std::to_string(s) + "->" + std::to_string(v) +
                " does not start a shortest path");
    }
  }
}

/// The same calls build_oracle makes, each in a span.
DistanceOracle traced_build(const Graph& g, Solver solver, SpanLog& log) {
  Scope b(log, "bench.build");
  if (solver == Solver::kPipelined) {
    Weight delta = 0;
    {
      Scope s(log, "graph.max_finite_distance");
      delta = dapsp::graph::max_finite_distance(g);
    }
    dapsp::core::KsspResult res;
    {
      Scope s(log, "core.pipelined_apsp");
      res = dapsp::core::pipelined_apsp(g, delta);
      log.aggregate("congest.send", res.stats.send_seconds);
      log.aggregate("congest.deliver", res.stats.deliver_seconds);
      log.aggregate("congest.receive", res.stats.receive_seconds);
    }
    Scope s(log, "service.make_oracle");
    return dapsp::service::make_oracle(
        res.dist, res.parent,
        {"pipelined APSP (Algorithm 1, Thm I.1 ii)", true, res.stats, {}});
  }
  const NodeId n = g.node_count();
  std::vector<std::vector<Weight>> dist(n);
  std::vector<std::vector<NodeId>> parent(n);
  for (NodeId src = 0; src < n; ++src) {
    Scope s(log, "seq.dijkstra");
    auto r = dapsp::seq::dijkstra(g, src);
    dist[src] = std::move(r.dist);
    parent[src] = std::move(r.parent);
  }
  Scope s(log, "service.make_oracle");
  return dapsp::service::make_oracle(
      dist, parent, {"reference (sequential Dijkstra sweep)", true, {}, {}});
}

struct Counts {
  std::uint64_t rounds = 0, messages = 0, bytes = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
  Counts& operator+=(const Counts& o) {
    rounds += o.rounds;
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
};

Counts counts_of(const dapsp::congest::RunStats& st) {
  return {st.rounds, st.total_messages, st.message_bytes};
}

/// The fixed canary graph: its counts are recorded in expected.json and
/// must repeat exactly whatever the seed.
void check_canary(const Context& ctx) {
  const Graph g = dapsp::graph::erdos_renyi(64, 4.0 / 64, {0, 6, 0.2}, 7);
  const Counts got = counts_of(
      dapsp::service::build_oracle(g, {Solver::kPipelined}).build_stats());
  check(got == Counts{ctx.expect_rounds, ctx.expect_messages,
                      ctx.expect_message_bytes},
        "canary counts rounds=" + std::to_string(got.rounds) +
            " messages=" + std::to_string(got.messages) +
            " message_bytes=" + std::to_string(got.bytes) +
            " differ from expected.json");
}

/// The timed operation is a sweep: one build_oracle call on each of the
/// run's graphs.  Sweep times are reported per build (sweep / kGraphs).
Result run_build(const Context& ctx, Solver solver) {
  SpanLog log(*ctx.tracer, 0);
  Result out;

  // Start the shared pool's workers before pinning, so they do not inherit
  // a one-core mask.
  dapsp::util::ThreadPool::global();
  // One engine thread: a round is a pool barrier, and on a shared host one
  // preempted vCPU stalls every barrier, so a pooled build times the host.
  if (solver == Solver::kPipelined) {
    dapsp::congest::Engine::set_force_threads(1);
  }
  CoreRotation cores;
  std::vector<Case> in;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps(ctx); ++r) {
    cores.next();
    const auto t0 = Clock::now();
    Scope s(log, "bench.setup");
    in = make_input(ctx, solver, log);
    setup_s.push_back(seconds_since(t0));
  }
  const NodeId n = in.front().g.node_count();
  double arcs = 0.0;  // summed over the sweep
  for (const Case& c : in) arcs += static_cast<double>(c.g.edge_count());
  const double work = static_cast<double>(n) * arcs;  // n*arcs per sweep

  const dapsp::service::OracleBuildOptions opts{solver};
  std::vector<double> sweep_s, traced_s;
  std::vector<Counts> first(kGraphs);  // of each graph's first build
  std::size_t closure_bytes = 0;
  const auto start = Clock::now();
  do {
    double sweep = 0.0, traced = 0.0;
    for (std::size_t i = 0; i < kGraphs; ++i) {
      cores.next();
      ++out.attempted;
      const auto t0 = Clock::now();
      const DistanceOracle o = dapsp::service::build_oracle(in[i].g, opts);
      sweep += seconds_since(t0);
      check_oracle(in[i], o);
      if (sweep_s.empty()) first[i] = counts_of(o.build_stats());
      check(counts_of(o.build_stats()) == first[i],
            "rounds/messages/message_bytes changed between builds of one "
            "graph");
      closure_bytes = std::max(closure_bytes, o.memory_bytes());
      if (!ctx.trace) continue;
      // The traced run follows each build with a decomposed one.
      const auto t1 = Clock::now();
      const DistanceOracle d = traced_build(in[i].g, solver, log);
      traced += seconds_since(t1);
      check_oracle(in[i], d);
      check(counts_of(d.build_stats()) == first[i],
            "decomposed build differs from build_oracle");
    }
    sweep_s.push_back(sweep);
    traced_s.push_back(traced);
  } while (seconds_since(start) < ctx.seconds);
  if (solver == Solver::kPipelined) check_canary(ctx);
  Counts total;  // over one sweep
  for (const Counts& c : first) total += c;

  const double sweep_med = median(sweep_s);
  const double build_med = sweep_med / kGraphs;
  out.figure("graphs", static_cast<double>(kGraphs), "count");
  out.figure("sweeps", static_cast<double>(sweep_s.size()), "count");
  out.figure("build_s", build_med, "s");
  out.figure("build_tail_s", tail(sweep_s).first / kGraphs, "s");
  out.figure("build_tail_pct", tail(sweep_s).second, "%");
  out.figure("build_mteps", work / sweep_med / 1e6, "MTEPS");
  if (solver == Solver::kPipelined) {
    out.figure("rounds", static_cast<double>(total.rounds), "count");
    out.figure("messages", static_cast<double>(total.messages), "count");
    out.figure("message_bytes", static_cast<double>(total.bytes), "bytes");
  }

  out.end_to_end["setup_s"] = median(setup_s);
  out.end_to_end["op_p50_ms"] = build_med * 1e3;
  out.end_to_end["op_tail_ms"] = tail(sweep_s).first / kGraphs * 1e3;
  // Work items: messages delivered (CONGEST) or edge scans n*arcs (sweep).
  const double items = solver == Solver::kPipelined
                           ? static_cast<double>(total.messages)
                           : work;
  out.end_to_end["items_per_s"] = items / sweep_med;
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  if (!ctx.trace) return out;

  log.flush();
  auto& pl = out.per_layer;
  const Ledger l = ctx.tracer->ledger();
  pl["graph.arcs"] = arcs;
  pl["graph.gen_s"] = l.mean_s("graph.gen");
  pl["seq.dijkstra_s"] = l.mean_s("seq.dijkstra") * n;
  if (pl["seq.dijkstra_s"] > 0) {
    pl["seq.dijkstra_mteps"] = work / kGraphs / pl["seq.dijkstra_s"] / 1e6;
  }
  pl["service.materialize_s"] = l.mean_s("service.make_oracle");
  pl["service.closure_mb"] = static_cast<double>(closure_bytes) / 1e6;
  pl["trace.overhead_ms"] = (median(traced_s) - sweep_med) / kGraphs * 1e3;
  if (solver == Solver::kPipelined) {
    // Engine phase totals from the returned RunStats (aggregate spans).
    const double solver_s = l.mean_s("core.pipelined_apsp");
    const double phases = l.mean_s("congest.send") +
                          l.mean_s("congest.deliver") +
                          l.mean_s("congest.receive");
    pl["core.solver_s"] = solver_s;
    pl["congest.send_s"] = l.mean_s("congest.send");
    pl["congest.deliver_s"] = l.mean_s("congest.deliver");
    pl["congest.receive_s"] = l.mean_s("congest.receive");
    pl["congest.phase_share"] = phases / solver_s;
    pl["congest.rounds"] = static_cast<double>(total.rounds);
    pl["congest.messages"] = static_cast<double>(total.messages);
    pl["congest.message_bytes"] = static_cast<double>(total.bytes);
    pl["congest.ns_per_message"] =
        phases * kGraphs * 1e9 / static_cast<double>(total.messages);

    // Cost of observing: one sweep with the critical-path recorder on.
    dapsp::service::OracleBuildOptions prof = opts;
    prof.critpath = true;
    double profiled = 0.0;
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < kGraphs; ++i) {
      const auto t0 = Clock::now();
      const DistanceOracle o = dapsp::service::build_oracle(in[i].g, prof);
      profiled += seconds_since(t0);
      check(counts_of(o.build_stats()) == first[i],
            "profiled build differs from the unprofiled one");
      skipped += o.build_stats().skipped_rounds;
    }
    pl["obs.critpath_overhead"] = profiled / sweep_med;
    pl["congest.skipped_rounds"] = static_cast<double>(skipped);
    pl["congest.executed_rounds"] =
        static_cast<double>(total.rounds - skipped);
  }
  return out;
}

}  // namespace

Result run_congest_apsp(const Context& ctx) {
  return run_build(ctx, Solver::kPipelined);
}

Result run_reference_build(const Context& ctx) {
  return run_build(ctx, Solver::kReference);
}

}  // namespace perfbench
