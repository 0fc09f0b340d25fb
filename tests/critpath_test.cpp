// Tests for the critical-path profiler (obs/critpath.*): deterministic
// chain extraction across schedulers and thread counts, graceful ring
// truncation, wall-clock attribution bounds, the same-round mutual-wake
// regression, and exporter JSON validity.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/bf_apsp.hpp"
#include "congest/engine.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dapsp::obs {
namespace {

using congest::RunEnv;

/// Calls `run(env)` with a fresh work-item recorder in `env` and analyzes
/// what it recorded.
template <typename Run>
CritPathReport profiled(Run&& run, RunEnv env = {},
                        std::size_t item_capacity = std::size_t{1} << 20) {
  TraceRecorder::Options opt;
  opt.work_item_capacity = item_capacity;
  TraceRecorder rec(opt);
  env.recorder = &rec;
  run(env);
  return analyze_critical_path(rec);
}

/// Bellman-Ford SSSP from node 0 under `env`.
void sssp(const graph::Graph& g, const RunEnv& env) {
  baseline::bf_sssp(g, 0, /*reverse=*/false, /*max_rounds=*/0, env);
}

/// Algorithm 1 with `p` under `env`.
void kssp(const graph::Graph& g, core::PipelinedParams p, const RunEnv& env) {
  p.env = env;
  core::pipelined_kssp(g, std::move(p));
}

/// The deterministic projection of a chain: everything except the measured
/// nanosecond fields, which legitimately vary run to run.
using DetStep = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint64_t, bool, std::uint32_t>;

std::vector<DetStep> det_chain(const CritPathReport& rep) {
  std::vector<DetStep> out;
  for (const RunCritPath& run : rep.runs) {
    for (const ChainStep& s : run.chain) {
      out.emplace_back(s.round, s.node, s.msgs_in, s.msgs_out, s.cost,
                       s.via_wake, s.wake_from);
    }
  }
  return out;
}

/// Structural invariants every extracted chain must satisfy.
void expect_well_formed(const CritPathReport& rep) {
  for (const RunCritPath& run : rep.runs) {
    ASSERT_FALSE(run.chain.empty());
    EXPECT_FALSE(run.chain.front().via_wake);
    for (std::size_t i = 0; i < run.chain.size(); ++i) {
      const ChainStep& s = run.chain[i];
      EXPECT_EQ(s.cost, 1u + s.msgs_in + s.msgs_out);
      if (i > 0) {
        const ChainStep& p = run.chain[i - 1];
        EXPECT_GE(s.round, p.round);  // oldest first, rounds nondecreasing
        if (s.via_wake) {
          // A wake edge names the sender: the previous chain step.
          EXPECT_EQ(s.wake_from, p.node);
        } else {
          // A prev edge stays on one node and strictly advances the round.
          EXPECT_EQ(s.node, p.node);
          EXPECT_GT(s.round, p.round);
        }
      }
    }
    EXPECT_EQ(run.compute_ns + run.deliver_ns + run.wait_ns, run.total_ns);
  }
}

TEST(CritPath, EmptyWithoutWorkItems) {
  TraceRecorder rec;  // default options: no work-item ring
  const graph::Graph g = graph::path(16, {1, 4, 0.0}, 7);
  sssp(g, {0, false, false, &rec});
  const CritPathReport rep = analyze_critical_path(rec);
  EXPECT_TRUE(rep.runs.empty());
  EXPECT_EQ(rep.chain_len, 0u);
  EXPECT_EQ(rep.items_seen, 0u);
}

TEST(CritPath, PathSsspChainWalksThePath) {
  const graph::NodeId n = 256;
  const graph::Graph g = graph::path(n, {1, 4, 0.0}, 11);
  const CritPathReport rep =
      profiled([&](const RunEnv& env) { sssp(g, env); });
  ASSERT_EQ(rep.runs.size(), 1u);
  EXPECT_TRUE(rep.complete());
  EXPECT_FALSE(rep.truncated);
  // The frontier is one node per round: the chain must thread the whole
  // path, alternating wake (message hop) and prev (same node) edges.
  EXPECT_GE(rep.chain_len, static_cast<std::uint64_t>(n));
  expect_well_formed(rep);
  std::uint64_t wakes = 0;
  for (const ChainStep& s : rep.runs[0].chain) wakes += s.via_wake ? 1 : 0;
  EXPECT_GE(wakes, static_cast<std::uint64_t>(n) - 2);
}

TEST(CritPath, AttributionBoundedByWallClock) {
  const graph::Graph g = graph::path(1024, {1, 4, 0.0}, 11);
  core::PipelinedParams p;
  p.sources = {0};
  p.h = 1023;
  p.delta = graph::max_finite_distance(g);
  const auto t0 = std::chrono::steady_clock::now();
  const CritPathReport rep =
      profiled([&](const RunEnv& env) { kssp(g, p, env); });
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ASSERT_EQ(rep.runs.size(), 1u);
  EXPECT_GT(rep.total_ns, 0u);
  EXPECT_LE(rep.total_ns, wall_ns);
  EXPECT_GE(rep.total_ns, rep.max_phase_ns);
  EXPECT_EQ(rep.compute_ns + rep.deliver_ns + rep.wait_ns, rep.total_ns);
  expect_well_formed(rep);
}

// The acceptance bar: the extracted chain is bit-identical across thread
// counts and across the sparse/dense schedulers, like RunStats.
TEST(CritPath, ChainBitIdenticalAcrossThreadsAndSchedulers) {
  const graph::NodeId n = 1024;
  const graph::Graph g = graph::path(n, {1, 4, 0.0}, 11);
  core::PipelinedParams p;
  p.sources = {0};
  p.h = n - 1;
  p.delta = graph::max_finite_distance(g);

  const auto run = [&](const RunEnv& env) { kssp(g, p, env); };
  const CritPathReport base = profiled(run, {1, false, false});
  ASSERT_EQ(base.runs.size(), 1u);
  EXPECT_GE(base.chain_len, static_cast<std::uint64_t>(n) / 2);
  const std::vector<DetStep> want = det_chain(base);

  for (const bool dense : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      const CritPathReport rep = profiled(run, {threads, false, dense});
      EXPECT_EQ(rep.chain_len, base.chain_len)
          << "dense=" << dense << " threads=" << threads;
      EXPECT_EQ(rep.total_cost, base.total_cost)
          << "dense=" << dense << " threads=" << threads;
      EXPECT_EQ(det_chain(rep), want)
          << "dense=" << dense << " threads=" << threads;
    }
  }
}

// Ring wrap-around: with a tiny work-item capacity the oldest items are
// overwritten; the analysis must cut the chain there and flag it, never
// follow a stale index.
TEST(CritPath, RingWrapAroundTruncatesGracefully) {
  const graph::Graph g = graph::path(256, {1, 4, 0.0}, 11);
  const CritPathReport rep = profiled(
      [&](const RunEnv& env) { sssp(g, env); }, {}, /*item_capacity=*/64);
  ASSERT_EQ(rep.runs.size(), 1u);
  EXPECT_GT(rep.items_dropped, 0u);
  EXPECT_FALSE(rep.complete());
  EXPECT_TRUE(rep.truncated);
  // The retained tail still yields a well-formed chain over retained items.
  EXPECT_GT(rep.chain_len, 0u);
  EXPECT_LE(rep.chain_len, 64u);
  expect_well_formed(rep);
}

// Regression: two nodes exchanging messages in the same round used to form
// a predecessor cycle (A woke B, B woke A) and the chain reconstruction
// walked it forever.  A wake-reached item participates through its send
// state only, so the walk must terminate.
TEST(CritPath, SameRoundMutualWakeTerminates) {
  // Two sources on a two-node graph: both endpoints send to each other in
  // the same round -- the minimal repro of the cycle.
  const graph::Graph tiny = graph::path(2, {1, 1, 0.0}, 3);
  const CritPathReport small = profiled([&](const RunEnv& env) {
    core::pipelined_apsp(tiny, graph::max_finite_distance(tiny), env);
  });
  ASSERT_EQ(small.runs.size(), 1u);
  EXPECT_GT(small.chain_len, 0u);
  expect_well_formed(small);

  // And at APSP scale, where many such exchanges overlap per round.
  const graph::Graph g = graph::path(48, {1, 4, 0.0}, 11);
  const CritPathReport rep = profiled([&](const RunEnv& env) {
    core::pipelined_apsp(g, graph::max_finite_distance(g), env);
  });
  ASSERT_EQ(rep.runs.size(), 1u);
  EXPECT_GT(rep.chain_len, 0u);
  expect_well_formed(rep);
}

TEST(CritPath, SummaryFoldsAndMatchesReport) {
  const graph::Graph g = graph::path(64, {1, 4, 0.0}, 11);
  const CritPathReport rep =
      profiled([&](const RunEnv& env) { sssp(g, env); });
  const CritPathSummary s = summarize(rep);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.runs, rep.runs.size());
  EXPECT_EQ(s.chain_len, rep.chain_len);
  EXPECT_EQ(s.total_ns, rep.total_ns);

  CritPathSummary acc;
  EXPECT_TRUE(acc.empty());
  acc += s;
  acc += s;
  EXPECT_EQ(acc.runs, 2 * s.runs);
  EXPECT_EQ(acc.chain_len, 2 * s.chain_len);
  EXPECT_EQ(acc.total_ns, 2 * s.total_ns);

  std::ostringstream os;
  JsonWriter w(os);
  s.write_json(w);
  EXPECT_TRUE(json_valid(os.str())) << os.str();
}

TEST(CritPath, ExportersEmitValidJson) {
  TraceRecorder::Options opt;
  opt.work_item_capacity = std::size_t{1} << 16;
  TraceRecorder rec(opt);
  const graph::Graph g = graph::path(64, {1, 4, 0.0}, 11);
  sssp(g, {0, false, false, &rec});
  const CritPathReport rep = analyze_critical_path(rec);
  ASSERT_EQ(rep.runs.size(), 1u);

  // The shared JSON block.
  std::ostringstream block;
  JsonWriter bw(block);
  write_critpath_json(rep, bw);
  EXPECT_TRUE(json_valid(block.str()));
  EXPECT_NE(block.str().find("\"chain\""), std::string::npos);

  // The run-record line.
  std::ostringstream line;
  write_critpath_record_line(rep, line);
  EXPECT_TRUE(jsonl_invalid_lines(line.str()).empty()) << line.str();
  EXPECT_EQ(line.str().rfind("{\"type\":\"critpath\"", 0), 0u);

  // The full run record (per-round lines + trailing critpath line) and the
  // Chrome trace with flame events.
  std::ostringstream record;
  rec.write_run_record(record);
  EXPECT_TRUE(jsonl_invalid_lines(record.str()).empty());
  EXPECT_NE(record.str().find("\"type\":\"critpath\""), std::string::npos);

  std::ostringstream chrome;
  rec.write_chrome_trace(chrome);
  EXPECT_TRUE(json_valid(chrome.str()));
  EXPECT_NE(chrome.str().find("critpath"), std::string::npos);

  // The human table at least names the chain.
  std::ostringstream table;
  write_critpath_table(rep, table);
  EXPECT_NE(table.str().find("chain"), std::string::npos);
}

}  // namespace
}  // namespace dapsp::obs
