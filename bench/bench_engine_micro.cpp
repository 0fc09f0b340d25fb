// Microbenchmarks (google-benchmark) for the simulator substrate itself:
// wall-clock cost per simulated round, message delivery throughput, and the
// exact-key arithmetic.  These measure the *simulator*, not the algorithms'
// round complexity (that's what E1-E9 report).  The ReferenceRows pair
// times the reference closure's row kernel, which the engine does not run,
// and the ReferenceBuild rows whole reference closures, inline against the
// pool; the Build rows time whole CONGEST oracle builds, one engine thread
// against the pool.
//
// The Sparse/Dense pairs run the same protocol under the active-set
// scheduler (default) and the exhaustive dense fallback; both produce
// bit-identical stats (tested), so their time ratio is a pure measurement of
// the scheduler.  scripts/bench_engine.sh captures the JSON as
// BENCH_ENGINE.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bf_apsp.hpp"
#include "congest/engine.hpp"
#include "core/key.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "harness.hpp"
#include "obs/critpath.hpp"
#include "obs/trace.hpp"
#include "seq/dijkstra.hpp"
#include "service/oracle.hpp"
#include "util/int_math.hpp"

namespace {

using namespace dapsp;
using congest::RunEnv;

void record_engine_counters(benchmark::State& state,
                            const congest::RunStats& s) {
  state.counters["simulated_rounds"] = static_cast<double>(s.rounds);
  state.counters["skipped_rounds"] = static_cast<double>(s.skipped_rounds);
  state.counters["messages"] = static_cast<double>(s.total_messages);
  state.counters["send_s"] = s.send_seconds;
  state.counters["deliver_s"] = s.deliver_seconds;
  state.counters["receive_s"] = s.receive_seconds;
}

// Runs the scenario once more, as `run(env)` with a work-item recorder added
// to `env` (outside the timed loop), and attaches the critical-path summary
// as counters, so BENCH_ENGINE.json carries the causal chain next to the
// wall-clock numbers:
//   critpath_ns   longest dependence chain, attributed wall-clock (ns)
//   critpath_len  steps on that chain
//   critpath_pct  chain time as % of the run's engine phase wall-clock
// The chain itself is deterministic (cost-weighted, see docs/PERF.md); only
// the ns attribution varies run to run.
template <typename Run>
void record_critpath_counters(benchmark::State& state, RunEnv env, Run&& run) {
  obs::TraceRecorder::Options ropt;
  ropt.work_item_capacity = std::size_t{1} << 20;
  obs::TraceRecorder rec(ropt);
  env.recorder = &rec;
  const congest::RunStats stats = run(env);
  const obs::CritPathReport rep = obs::analyze_critical_path(rec);
  const double wall_ns =
      (stats.send_seconds + stats.deliver_seconds + stats.receive_seconds) *
      1e9;
  state.counters["critpath_ns"] = static_cast<double>(rep.total_ns);
  state.counters["critpath_len"] = static_cast<double>(rep.chain_len);
  state.counters["critpath_pct"] =
      wall_ns > 0.0 ? 100.0 * static_cast<double>(rep.total_ns) / wall_ns
                    : 0.0;
}

// Bellman-Ford SSSP on a long path: the frontier is one node per round, so
// the active set is ~1/n of the graph -- the best case the active-set
// scheduler is built for.
void run_path_sssp(benchmark::State& state, bool dense) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::path(n, {1, 4, 0.0}, 11);
  const auto sssp = [&](const RunEnv& env) {
    return baseline::bf_sssp(g, 0, /*reverse=*/false, /*max_rounds=*/0, env);
  };
  const RunEnv env{0, false, dense};
  record_critpath_counters(state, env,
                           [&](const RunEnv& e) { return sssp(e).stats; });
  for (auto _ : state) {
    auto res = sssp(env);
    benchmark::DoNotOptimize(res.dist.data());
    record_engine_counters(state, res.stats);
  }
}

void BM_PathSsspSparse(benchmark::State& state) {
  run_path_sssp(state, /*dense=*/false);
}
BENCHMARK(BM_PathSsspSparse)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_PathSsspDense(benchmark::State& state) {
  run_path_sssp(state, /*dense=*/true);
}
BENCHMARK(BM_PathSsspDense)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// Pipelined SSSP on a cycle: Algorithm 1's schedule (d + position) fires
// each node a handful of times across a Theta(n) round span, so almost all
// rounds are silent for almost all nodes.
void run_pipelined_cycle(benchmark::State& state, bool dense) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::cycle(n, {1, 3, 0.0}, 12);
  const graph::Weight delta = graph::max_finite_distance(g);
  core::PipelinedParams p;
  p.sources = {0};
  p.h = n - 1;
  p.delta = delta;
  p.env.dense = dense;
  record_critpath_counters(state, p.env, [&](const RunEnv& env) {
    core::PipelinedParams q = p;
    q.env = env;
    return core::pipelined_kssp(g, std::move(q)).stats;
  });
  for (auto _ : state) {
    auto res = core::pipelined_kssp(g, p);
    benchmark::DoNotOptimize(res.dist.data());
    record_engine_counters(state, res.stats);
  }
}

void BM_PipelinedCycleSparse(benchmark::State& state) {
  run_pipelined_cycle(state, /*dense=*/false);
}
BENCHMARK(BM_PipelinedCycleSparse)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_PipelinedCycleDense(benchmark::State& state) {
  run_pipelined_cycle(state, /*dense=*/true);
}
BENCHMARK(BM_PipelinedCycleDense)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_EngineFloodRound(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::erdos_renyi(n, 4.0 / n, {1, 4, 0.0}, 1);
  for (auto _ : state) {
    auto res = baseline::bf_sssp(g, 0);
    benchmark::DoNotOptimize(res.dist.data());
    state.counters["rounds"] = static_cast<double>(res.stats.rounds);
  }
}
BENCHMARK(BM_EngineFloodRound)->Arg(64)->Arg(256)->Arg(1024);

void BM_PipelinedApsp(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::erdos_renyi(n, 4.0 / n, {0, 6, 0.2}, 2);
  const graph::Weight delta = graph::max_finite_distance(g);
  record_critpath_counters(state, {}, [&](const RunEnv& env) {
    return core::pipelined_apsp(g, delta, env).stats;
  });
  for (auto _ : state) {
    auto res = core::pipelined_apsp(g, delta);
    benchmark::DoNotOptimize(res.dist.data());
    state.counters["simulated_rounds"] =
        static_cast<double>(res.stats.rounds);
    state.counters["messages"] = static_cast<double>(res.stats.total_messages);
  }
}
BENCHMARK(BM_PipelinedApsp)->Arg(24)->Arg(48);

// service::build_oracle on perfbench's ER family (p = 4/n, weights [0, 6]
// with 20% zero, seed 3), named BM_Build/{solver}/{n}/{threads}: threads 1
// pins the engine to one thread, as perfbench's congest_apsp does; 0 leaves
// it on the default process-global pool.  Each pair of rows measures what
// the pool costs or gains against one engine thread.
void run_build(benchmark::State& state, service::Solver solver,
               graph::NodeId n, std::size_t threads) {
  const graph::Graph g = graph::erdos_renyi(n, 4.0 / n, {0, 6, 0.2}, 3);
  service::OracleBuildOptions opts;
  opts.solver = solver;
  opts.env.threads = threads;
  congest::RunStats stats;
  for (auto _ : state) {
    const service::DistanceOracle o = service::build_oracle(g, opts);
    stats = o.build_stats();
    benchmark::DoNotOptimize(stats.rounds);
  }
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["messages"] = static_cast<double>(stats.total_messages);
}

void register_build_rows() {
  using service::Solver;
  const std::pair<Solver, graph::NodeId> rows[] = {
      {Solver::kPipelined, 64},  {Solver::kPipelined, 128},
      {Solver::kPipelined, 256}, {Solver::kBlocker, 64},
      {Solver::kBlocker, 128},   {Solver::kScaled, 64},
      {Solver::kScaled, 128},    {Solver::kApprox, 64},
      {Solver::kApprox, 128}};
  for (const auto& [solver, n] : rows) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      const std::string name = std::string("BM_Build/") +
                               service::solver_name(solver) + "/" +
                               std::to_string(n) + "/" +
                               std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), run_build, solver, n,
                                   threads)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// The reference closure's row kernel, seq::dijkstra_row, once per source
// with one workspace: build_oracle(kReference)'s loop without the n x n
// table.  RMAT graphs as in perfbench's reference_build (edgefactor 8, 20%
// zero weights); mteps counts n * arcs edge scans per second.
void run_reference_rows(benchmark::State& state, graph::Weight max_weight) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const graph::Graph g = graph::rmat(scale, 8, {0, max_weight, 0.2}, 5);
  const graph::NodeId n = g.node_count();
  std::vector<graph::Weight> dist(n);
  std::vector<graph::NodeId> next(n);
  seq::RowWorkspace ws;
  for (auto _ : state) {
    for (graph::NodeId s = 0; s < n; ++s) {
      seq::dijkstra_row(g, s, dist, next, ws);
    }
    benchmark::DoNotOptimize(dist.data());
    benchmark::DoNotOptimize(next.data());
    benchmark::ClobberMemory();
  }
  state.counters["mteps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n *
          static_cast<double>(g.edge_count()) * 1e-6,
      benchmark::Counter::kIsRate);
}

void BM_ReferenceRows(benchmark::State& state) {
  run_reference_rows(state, 8);
}
BENCHMARK(BM_ReferenceRows)->Arg(8)->Arg(11)->Unit(benchmark::kMillisecond);

// Weights up to 2^30: the queue's entries land in high buckets.
void BM_ReferenceRowsWide(benchmark::State& state) {
  run_reference_rows(state, graph::Weight{1} << 30);
}
BENCHMARK(BM_ReferenceRowsWide)->Arg(8)->Unit(benchmark::kMillisecond);

// build_oracle(kReference) whole, named BM_ReferenceBuild/{scale}/{threads}
// on the RMAT graphs of BM_ReferenceRows: threads 1 runs the row loop
// inline, 0 on the process-global pool.  The pool's workers do most of the
// work, so the rows report wall-clock time, and mteps counts n * arcs edge
// scans per wall-clock second.
void run_reference_build(benchmark::State& state, std::uint32_t scale,
                         std::size_t threads) {
  const graph::Graph g = graph::rmat(scale, 8, {0, 8, 0.2}, 5);
  service::OracleBuildOptions opts{service::Solver::kReference};
  opts.env.threads = threads;
  double wall_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const service::DistanceOracle o = service::build_oracle(g, opts);
    wall_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    benchmark::DoNotOptimize(o.dist(0, 0));
  }
  state.counters["mteps"] = static_cast<double>(state.iterations()) *
                            g.node_count() *
                            static_cast<double>(g.edge_count()) * 1e-6 /
                            wall_s;
}

void register_reference_build_rows() {
  for (const std::uint32_t scale : {8u, 11u}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      const std::string name = "BM_ReferenceBuild/" + std::to_string(scale) +
                               "/" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), run_reference_build, scale,
                                   threads)
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void BM_KeyCompare(benchmark::State& state) {
  const core::GammaSq gamma{1234, 567};
  std::uint64_t acc = 0;
  std::int64_t d = 1;
  for (auto _ : state) {
    const core::Key a{d % 100000, static_cast<std::uint32_t>(d % 64)};
    const core::Key b{(d * 7) % 100000, static_cast<std::uint32_t>(d % 61)};
    acc += static_cast<std::uint64_t>(a.compare(b, gamma) + 1);
    ++d;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_KeyCompare);

void BM_CeilMulSqrt(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint64_t d = 1;
  for (auto _ : state) {
    acc += util::ceil_mul_sqrt(d % 1000000, 12345, 678);
    ++d;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_CeilMulSqrt);

}  // namespace

// Custom main: one warm-up comparison table (per-phase wall-clock and
// per-round distribution quantiles, sparse vs dense) before the
// google-benchmark runs, so `bench_engine_micro` with no flags already shows
// where the time goes.
//
// Two extra flags (peeled off before google-benchmark parses argv, which
// rejects anything it does not recognise) export the warm-up runs through
// the engine trace sink -- CI uses them to publish a sample trace artifact:
//   --dapsp-trace=FILE        Chrome trace_event JSON of the warm-up runs
//   --dapsp-run-record=FILE   compact JSONL run record of the same runs
int main(int argc, char** argv) {
  std::string trace_file;
  std::string record_file;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--dapsp-trace=", 0) == 0) {
      trace_file = a.substr(std::string("--dapsp-trace=").size());
    } else if (a.rfind("--dapsp-run-record=", 0) == 0) {
      record_file = a.substr(std::string("--dapsp-run-record=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  dapsp::bench::banner(
      "ENGINE", "Simulator substrate microbenchmarks (active-set scheduler "
                "vs dense fallback; identical stats, different wall-clock).");
  {
    dapsp::obs::TraceRecorder recorder;
    const bool tracing = !trace_file.empty() || !record_file.empty();
    dapsp::congest::RunEnv env;
    if (tracing) env.recorder = &recorder;
    const dapsp::graph::Graph g =
        dapsp::graph::path(2048, {1, 4, 0.0}, 11);
    auto sparse = dapsp::baseline::bf_sssp(g, 0, false, 0, env);
    env.dense = true;
    auto dense = dapsp::baseline::bf_sssp(g, 0, false, 0, env);
    dapsp::bench::print_phase_timing({
        {"path-sssp n=2048 sparse", sparse.stats},
        {"path-sssp n=2048 dense", dense.stats},
    });
    std::cout << '\n';
    dapsp::bench::print_round_histograms({
        {"path-sssp n=2048 sparse", sparse.stats},
        {"path-sssp n=2048 dense", dense.stats},
    });
    std::cout << '\n';
    if (!trace_file.empty()) {
      std::ofstream f(trace_file);
      if (!f) {
        std::cerr << "cannot open " << trace_file << '\n';
        return 1;
      }
      recorder.write_chrome_trace(f);
      std::cout << "wrote " << trace_file << '\n';
    }
    if (!record_file.empty()) {
      std::ofstream f(record_file);
      if (!f) {
        std::cerr << "cannot open " << record_file << '\n';
        return 1;
      }
      recorder.write_run_record(f);
      std::cout << "wrote " << record_file << '\n';
    }
  }
  register_build_rows();
  register_reference_build_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
