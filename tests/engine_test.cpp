#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "baseline/bf_apsp.hpp"
#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "congest/primitives.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/pipelined_ssp.hpp"
#include "core/scaled_apsp.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace dapsp::congest {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;

constexpr std::uint32_t kPing = 100;

/// Floods a counter: node 0 starts, everyone forwards value+1 once.
class FloodProtocol final : public Protocol {
 public:
  explicit FloodProtocol(NodeId self) : self_(self) {}

  void init(Context& ctx) override {
    if (self_ == 0) {
      value_ = 0;
      pending_ = true;
      ctx.broadcast(Message(kPing, {0}));
      pending_ = false;
      sent_ = true;
    }
  }

  void send_phase(Context& ctx) override {
    if (pending_ && !sent_) {
      ctx.broadcast(Message(kPing, {value_}));
      sent_ = true;
      pending_ = false;
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag == kPing && value_ < 0) {
        value_ = env.msg.f[0] + 1;
        pending_ = !sent_;
      }
      ++received_;
    }
  }

  bool quiescent() const override { return !pending_; }

  std::int64_t value() const { return value_; }
  int received() const { return received_; }

 private:
  NodeId self_;
  std::int64_t value_ = -1;
  bool pending_ = false;
  bool sent_ = false;
  int received_ = 0;
};

std::vector<std::unique_ptr<Protocol>> make_flood(const Graph& g) {
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    procs.push_back(std::make_unique<FloodProtocol>(v));
  }
  return procs;
}

TEST(Engine, FloodReachesAllWithBfsDepths) {
  const Graph g = graph::grid(4, 5, {1, 1, 0.0}, 1);
  Engine engine(g, make_flood(g));
  const RunStats stats = engine.run();
  EXPECT_FALSE(stats.hit_round_limit);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& p = static_cast<const FloodProtocol&>(engine.protocol(v));
    EXPECT_GE(p.value(), 0) << "node " << v << " never reached";
  }
  // Node 0's value is 0; the far corner (3,4) is 7 hops away.
  EXPECT_EQ(static_cast<const FloodProtocol&>(engine.protocol(19)).value(), 7);
}

TEST(Engine, StopsAtQuiescence) {
  const Graph g = graph::path(10, {1, 1, 0.0}, 2);
  Engine engine(g, make_flood(g));
  const RunStats stats = engine.run();
  // Flood over a 10-path finishes in ~9 rounds, far below the default cap.
  EXPECT_LE(stats.rounds, 12u);
  EXPECT_FALSE(stats.hit_round_limit);
}

TEST(Engine, RoundLimitReportedWhenWorkRemains) {
  const Graph g = graph::path(30, {1, 1, 0.0}, 3);
  EngineOptions opt;
  opt.max_rounds = 3;  // flood cannot finish
  Engine engine(g, make_flood(g), opt);
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 3u);
}

TEST(Engine, MessageAccounting) {
  const Graph g = graph::star(5, {1, 1, 0.0}, 4);
  Engine engine(g, make_flood(g));
  const RunStats stats = engine.run();
  // Center (node 0) broadcasts 4 messages in init; each leaf sends 4... no:
  // each leaf broadcasts over its single link -> 1 message each.
  EXPECT_EQ(stats.total_messages, 4u + 4u);
  EXPECT_EQ(stats.max_link_congestion, 1u);
}

TEST(Engine, SendToNonNeighborThrows) {
  class BadProtocol final : public Protocol {
   public:
    void init(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(2, Message(kPing, {1}));
    }
    void send_phase(Context&) override {}
  };
  const Graph g = graph::path(3, {1, 1, 0.0}, 5);  // 0-1-2: 0 and 2 not adjacent
  std::vector<std::unique_ptr<Protocol>> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(std::make_unique<BadProtocol>());
  Engine engine(g, std::move(procs));
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, SendInReceivePhaseThrows) {
  class Chatty final : public Protocol {
   public:
    void init(Context& ctx) override { ctx.broadcast(Message(kPing, {0})); }
    void receive_phase(Context& ctx) override {
      if (!ctx.inbox().empty()) ctx.broadcast(Message(kPing, {1}));
    }
  };
  const Graph g = graph::path(2, {1, 1, 0.0}, 6);
  std::vector<std::unique_ptr<Protocol>> procs;
  procs.push_back(std::make_unique<Chatty>());
  procs.push_back(std::make_unique<Chatty>());
  Engine engine(g, std::move(procs));
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, ProtocolCountMismatchThrows) {
  const Graph g = graph::path(3, {1, 1, 0.0}, 7);
  std::vector<std::unique_ptr<Protocol>> procs;
  procs.push_back(std::make_unique<FloodProtocol>(0));
  EXPECT_THROW(Engine(g, std::move(procs)), std::logic_error);
}

TEST(Engine, InboxOrderedBySender) {
  class Recorder final : public Protocol {
   public:
    void init(Context& ctx) override {
      if (ctx.self() != 0) ctx.send(0, Message(kPing, {ctx.self()}));
    }
    void receive_phase(Context& ctx) override {
      for (const Envelope& env : ctx.inbox()) senders.push_back(env.from);
    }
    std::vector<NodeId> senders;
  };
  const Graph g = graph::star(6, {1, 1, 0.0}, 8);
  std::vector<std::unique_ptr<Protocol>> procs;
  for (int i = 0; i < 6; ++i) procs.push_back(std::make_unique<Recorder>());
  Engine engine(g, std::move(procs));
  engine.run();
  const auto& center = static_cast<const Recorder&>(engine.protocol(0));
  ASSERT_EQ(center.senders.size(), 5u);
  EXPECT_TRUE(std::is_sorted(center.senders.begin(), center.senders.end()));
}

TEST(Engine, CongestionTracked) {
  // Two messages on the same link in the same round.
  class DoubleSend final : public Protocol {
   public:
    void init(Context& ctx) override {
      if (ctx.self() == 0) {
        ctx.send(1, Message(kPing, {1}));
        ctx.send(1, Message(kPing, {2}));
      }
    }
  };
  const Graph g = graph::path(2, {1, 1, 0.0}, 9);
  std::vector<std::unique_ptr<Protocol>> procs;
  procs.push_back(std::make_unique<DoubleSend>());
  procs.push_back(std::make_unique<DoubleSend>());
  Engine engine(g, std::move(procs));
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.max_link_congestion, 2u);
  EXPECT_EQ(stats.total_messages, 2u);
  EXPECT_EQ(stats.max_link_total, 2u);
}

TEST(Engine, StepByStep) {
  const Graph g = graph::path(4, {1, 1, 0.0}, 10);
  Engine engine(g, make_flood(g));
  EXPECT_EQ(engine.step(), 1u);  // init: node 0 -> node 1
  EXPECT_EQ(engine.step(), 2u);  // node 1 forwards to 0 and 2
  EXPECT_EQ(engine.current_round(), 1u);
}

TEST(Engine, ThreadCountDoesNotChangeResults) {
  // Same flood with a per-engine 4-thread pool vs the (single-core) global
  // pool: bit-identical outcomes.
  const Graph g = graph::erdos_renyi(40, 0.12, {1, 5, 0.0}, 60);
  const auto run = [&](std::size_t threads) {
    std::vector<std::unique_ptr<Protocol>> procs = make_flood(g);
    EngineOptions opt;
    opt.env.threads = threads;
    Engine engine(g, std::move(procs), opt);
    const RunStats stats = engine.run();
    std::vector<std::int64_t> values;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      values.push_back(static_cast<const FloodProtocol&>(engine.protocol(v)).value());
    }
    return std::make_tuple(values, stats.total_messages, stats.rounds);
  };
  EXPECT_EQ(run(0), run(4));
  EXPECT_EQ(run(2), run(4));
}

TEST(Engine, PerRoundRecording) {
  const Graph g = graph::path(6, {1, 1, 0.0}, 61);
  std::vector<std::unique_ptr<Protocol>> procs = make_flood(g);
  EngineOptions opt;
  opt.record_per_round = true;
  Engine engine(g, std::move(procs), opt);
  const RunStats stats = engine.run();
  ASSERT_FALSE(stats.per_round_messages.empty());
  std::uint64_t sum = 0;
  for (const auto m : stats.per_round_messages) sum += m;
  EXPECT_EQ(sum, stats.total_messages);
}

TEST(RunStats, SummaryMentionsKeyNumbers) {
  RunStats s;
  s.rounds = 12;
  s.total_messages = 34;
  s.max_link_congestion = 2;
  const std::string text = s.summary();
  EXPECT_NE(text.find("rounds=12"), std::string::npos);
  EXPECT_NE(text.find("messages=34"), std::string::npos);
  EXPECT_EQ(text.find("HIT ROUND LIMIT"), std::string::npos);
  s.hit_round_limit = true;
  EXPECT_NE(s.summary().find("HIT ROUND LIMIT"), std::string::npos);
}

TEST(RunStats, SequentialComposition) {
  RunStats a;
  a.rounds = 10;
  a.total_messages = 5;
  a.max_link_congestion = 2;
  a.last_message_round = 9;
  RunStats b;
  b.rounds = 7;
  b.total_messages = 3;
  b.max_link_congestion = 4;
  b.max_congestion_round = 3;
  b.last_message_round = 6;
  a += b;
  EXPECT_EQ(a.rounds, 17u);
  EXPECT_EQ(a.total_messages, 8u);
  EXPECT_EQ(a.max_link_congestion, 4u);
  EXPECT_EQ(a.max_congestion_round, 13u);
  EXPECT_EQ(a.last_message_round, 16u);
}

TEST(Primitives, BfsTreeDepthsMatchBfs) {
  const Graph g = graph::grid(5, 5, {1, 1, 0.0}, 11);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(g, 0, &stats);
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.depth[24], 8u);  // opposite corner
  EXPECT_EQ(tree.height, 8u);
  EXPECT_LE(stats.rounds, 12u);
  // Parent depths decrease by one.
  for (NodeId v = 1; v < g.node_count(); ++v) {
    ASSERT_TRUE(tree.reached(v));
    EXPECT_EQ(tree.depth[v], tree.depth[tree.parent[v]] + 1);
  }
  // children lists are consistent with parents.
  std::size_t child_links = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) child_links += tree.children[v].size();
  EXPECT_EQ(child_links, g.node_count() - 1u);
}

TEST(Primitives, BfsTreeDisconnected) {
  GraphBuilder b(4, false);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  const Graph g = std::move(b).build();
  const BfsTree tree = build_bfs_tree(g, 0);
  EXPECT_TRUE(tree.reached(1));
  EXPECT_FALSE(tree.reached(2));
  EXPECT_FALSE(tree.reached(3));
}

TEST(Primitives, BroadcastDeliversAllValues) {
  const Graph g = graph::random_tree(20, {1, 1, 0.0}, 12);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(g, 0, &stats);
  std::vector<std::int64_t> values{5, -3, 42, 0, 7};
  const auto copies = broadcast_values(g, tree, values, &stats);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(copies[v], values) << "node " << v;
  }
  // Pipelined: |values| + height + O(1) rounds for the broadcast phase.
}

TEST(Primitives, BroadcastEmpty) {
  const Graph g = graph::path(4, {1, 1, 0.0}, 13);
  const BfsTree tree = build_bfs_tree(g, 0);
  const auto copies = broadcast_values(g, tree, {});
  for (const auto& c : copies) EXPECT_TRUE(c.empty());
}

TEST(Primitives, ConvergeMaxFindsArgmax) {
  const Graph g = graph::grid(4, 4, {1, 1, 0.0}, 14);
  const BfsTree tree = build_bfs_tree(g, 0);
  std::vector<std::int64_t> vals(g.node_count(), 1);
  vals[11] = 99;
  const auto [best, arg] = converge_max(g, tree, vals);
  EXPECT_EQ(best, 99);
  EXPECT_EQ(arg, 11u);
}

TEST(Primitives, ConvergeMaxTieBreaksToSmallerId) {
  const Graph g = graph::path(6, {1, 1, 0.0}, 15);
  const BfsTree tree = build_bfs_tree(g, 2);
  std::vector<std::int64_t> vals{7, 3, 7, 3, 7, 3};
  const auto [best, arg] = converge_max(g, tree, vals);
  EXPECT_EQ(best, 7);
  EXPECT_EQ(arg, 0u);
}

TEST(Primitives, GatherToAllCollectsEverything) {
  const Graph g = graph::grid(3, 3, {1, 1, 0.0}, 16);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(g, 4, &stats);
  std::vector<std::vector<GatherItem>> items(g.node_count());
  items[0].push_back({0, 10, 100});
  items[8].push_back({8, 20, 200});
  items[8].push_back({8, 21, 201});
  items[4].push_back({4, 30, 300});  // the root itself
  const auto all = gather_to_all(g, tree, items, &stats);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], (GatherItem{0, 10, 100}));
  EXPECT_EQ(all[1], (GatherItem{4, 30, 300}));
  EXPECT_EQ(all[2], (GatherItem{8, 20, 200}));
  EXPECT_EQ(all[3], (GatherItem{8, 21, 201}));
}

TEST(Primitives, GatherToAllEmpty) {
  const Graph g = graph::path(5, {1, 1, 0.0}, 17);
  const BfsTree tree = build_bfs_tree(g, 0);
  const auto all =
      gather_to_all(g, tree, std::vector<std::vector<GatherItem>>(5));
  EXPECT_TRUE(all.empty());
}

// ---------------------------------------------------------------------------
// Sparse/dense equivalence: the active-set scheduler must be invisible in
// every deterministic quantity.  Each solver is run once on the dense
// fallback (the correctness oracle) and then sparse across thread counts;
// stats and outputs must be bit-identical.  Wall-clock timers and
// skipped_rounds are host observability, not CONGEST accounting, and are
// deliberately excluded.
// ---------------------------------------------------------------------------

/// The deterministic subset of RunStats (wall-clock histograms excluded,
/// round_messages_hist included: it must be bit-identical like
/// per_round_messages).
struct DetStats {
  Round rounds;
  Round last_message_round;
  std::uint64_t total_messages;
  std::uint64_t max_link_congestion;
  Round max_congestion_round;
  std::uint64_t max_link_total;
  std::uint32_t max_message_fields;
  std::uint64_t message_bytes;
  bool hit_round_limit;
  std::vector<std::uint64_t> per_round_messages;
  obs::Histogram round_messages_hist;

  friend bool operator==(const DetStats&, const DetStats&) = default;
};

DetStats det(const RunStats& s) {
  return {s.rounds,
          s.last_message_round,
          s.total_messages,
          s.max_link_congestion,
          s.max_congestion_round,
          s.max_link_total,
          s.max_message_fields,
          s.message_bytes,
          s.hit_round_limit,
          s.per_round_messages,
          s.round_messages_hist};
}

using SolverRun = std::pair<RunStats, std::vector<std::vector<Weight>>>;

/// Runs `solve(env)` dense single-threaded, then sparse with 1 thread and
/// with the shared pool; everything deterministic must match exactly.
template <typename Solver>
void expect_sparse_matches_dense(const Solver& solve, const char* label) {
  const SolverRun dense = solve(RunEnv{1, false, true});
  EXPECT_EQ(dense.first.skipped_rounds, 0u) << label << ": dense skipped";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    const SolverRun sparse = solve(RunEnv{threads, false, false});
    EXPECT_EQ(det(sparse.first), det(dense.first))
        << label << ": stats diverge at threads=" << threads;
    EXPECT_EQ(sparse.second, dense.second)
        << label << ": outputs diverge at threads=" << threads;
  }
}

TEST(SparseDense, PipelinedApsp) {
  const Graph g = graph::erdos_renyi(16, 0.25, {1, 6, 0.0}, 9100);
  const Weight delta = graph::max_finite_distance(g);
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        const auto res = core::pipelined_apsp(g, delta, env);
        return SolverRun{res.stats, res.dist};
      },
      "pipelined_apsp");
}

TEST(SparseDense, PipelinedKsspScrambledInbox) {
  const Graph g = graph::erdos_renyi(14, 0.3, {1, 5, 0.2}, 9150);
  core::PipelinedParams p;
  p.sources = {0, 3, 7};
  p.h = g.node_count() - 1;
  p.delta = graph::max_finite_distance(g);
  p.scramble_inbox = true;
  p.record_per_round = true;
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::pipelined_kssp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "pipelined_kssp+scramble");
}

TEST(SparseDense, BellmanFordApsp) {
  const Graph g = graph::erdos_renyi(15, 0.25, {1, 7, 0.0}, 9200);
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        const auto res = baseline::bf_apsp(g, env);
        return SolverRun{res.stats, res.dist};
      },
      "bf_apsp");
}

TEST(SparseDense, BlockerApsp) {
  const Graph g = graph::erdos_renyi(12, 0.35, {1, 5, 0.0}, 9300);
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        core::BlockerApspParams p;
        p.env = env;
        const auto res = core::blocker_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "blocker_apsp");
}

TEST(SparseDense, ScaledHhopApsp) {
  const Graph g = graph::erdos_renyi(12, 0.3, {0, 5, 0.3}, 9400);
  core::ScaledApspParams p;
  p.h = g.node_count() - 1;
  p.delta = graph::max_finite_distance(g);
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::scaled_hhop_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "scaled_hhop_apsp");
}

TEST(SparseDense, ApproxApsp) {
  const Graph g = graph::erdos_renyi(14, 0.25, {0, 6, 0.4}, 9500);
  core::ApproxApspParams p;
  p.eps = 0.5;
  expect_sparse_matches_dense(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::approx_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "approx_apsp");
}

/// Node 0 stays silent until round `fire`, then broadcasts once.  Its
/// next_send_round hint lets the sparse engine fast-forward the gap.
class TimerProtocol final : public Protocol {
 public:
  TimerProtocol(NodeId self, Round fire) : self_(self), fire_(fire) {}

  void send_phase(Context& ctx) override {
    if (self_ == 0 && ctx.round() == fire_) {
      ctx.broadcast(Message(kPing, {42}));
      fired_ = true;
    }
  }

  void receive_phase(Context& ctx) override {
    got_ += static_cast<int>(ctx.inbox().size());
  }

  bool quiescent() const override { return self_ != 0 || fired_; }

  Round next_send_round(Round now) const override {
    if (self_ != 0 || now >= fire_) return kNeverSends;
    return fire_;
  }

  int got() const { return got_; }

 private:
  NodeId self_;
  Round fire_;
  bool fired_ = false;
  int got_ = 0;
};

TEST(SparseDense, FastForwardSkipsSilentGapBitIdentically) {
  const Graph g = graph::path(8, {1, 1, 0.0}, 9600);
  constexpr Round kFire = 40;
  const auto make = [&] {
    std::vector<std::unique_ptr<Protocol>> procs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      procs.push_back(std::make_unique<TimerProtocol>(v, kFire));
    }
    return procs;
  };
  EngineOptions opt;
  opt.record_per_round = true;

  EngineOptions dense_opt = opt;
  dense_opt.env.dense = true;
  Engine dense(g, make(), dense_opt);
  const RunStats ds = dense.run();
  Engine sparse(g, make(), opt);
  const RunStats ss = sparse.run();

  EXPECT_EQ(det(ss), det(ds));
  EXPECT_EQ(ds.skipped_rounds, 0u);
  EXPECT_GT(ss.skipped_rounds, 30u);  // the silent 2..39 gap never executed
  EXPECT_EQ(ss.last_message_round, kFire);
  ASSERT_EQ(ss.per_round_messages.size(), ds.per_round_messages.size());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& dp = static_cast<const TimerProtocol&>(dense.protocol(v));
    const auto& sp = static_cast<const TimerProtocol&>(sparse.protocol(v));
    EXPECT_EQ(sp.got(), dp.got()) << "node " << v;
  }
}

// ---------------------------------------------------------------------------
// Delivery plane (one send-order log per sender): differential across
// schedulers and thread counts, exact payloads including mixed widths and
// several sends on one link, byte accounting, and the steady-state
// zero-allocation guarantee.
// ---------------------------------------------------------------------------

/// Runs `solve(env)` once as the dense single-threaded oracle, then under
/// both schedulers at 1, 4, and 8 worker threads; every deterministic stat
/// (including message_bytes) and every output must be bit-identical.
template <typename Solver>
void expect_plane_invariant(const Solver& solve, const char* label) {
  const SolverRun oracle = solve(RunEnv{1, false, true});
  for (const bool dense : {false, true}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const SolverRun run = solve(RunEnv{threads, false, dense});
      EXPECT_EQ(det(run.first), det(oracle.first))
          << label << ": stats diverge, dense=" << dense
          << " threads=" << threads;
      EXPECT_EQ(run.second, oracle.second)
          << label << ": outputs diverge, dense=" << dense
          << " threads=" << threads;
    }
  }
}

TEST(DeliveryPlane, PipelinedKsspInvariant) {
  const Graph g = graph::erdos_renyi(14, 0.3, {1, 5, 0.2}, 7100);
  core::PipelinedParams p;
  p.sources = {0, 3, 7};
  p.h = g.node_count() - 1;
  p.delta = graph::max_finite_distance(g);
  p.record_per_round = true;
  expect_plane_invariant(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::pipelined_kssp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "pipelined_kssp");
}

TEST(DeliveryPlane, BellmanFordApspInvariant) {
  const Graph g = graph::erdos_renyi(15, 0.25, {1, 7, 0.0}, 7200);
  expect_plane_invariant(
      [&](const RunEnv& env) {
        const auto res = baseline::bf_apsp(g, env);
        return SolverRun{res.stats, res.dist};
      },
      "bf_apsp");
}

TEST(DeliveryPlane, BlockerApspInvariant) {
  const Graph g = graph::erdos_renyi(12, 0.35, {1, 5, 0.0}, 7300);
  expect_plane_invariant(
      [&](const RunEnv& env) {
        core::BlockerApspParams p;
        p.env = env;
        const auto res = core::blocker_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "blocker_apsp");
}

TEST(DeliveryPlane, ScaledHhopApspInvariant) {
  const Graph g = graph::erdos_renyi(12, 0.3, {0, 5, 0.3}, 7400);
  core::ScaledApspParams p;
  p.h = g.node_count() - 1;
  p.delta = graph::max_finite_distance(g);
  expect_plane_invariant(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::scaled_hhop_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "scaled_hhop_apsp");
}

TEST(DeliveryPlane, ApproxApspInvariant) {
  const Graph g = graph::erdos_renyi(14, 0.25, {0, 6, 0.4}, 7500);
  core::ApproxApspParams p;
  p.eps = 0.5;
  expect_plane_invariant(
      [&](const RunEnv& env) {
        p.env = env;
        const auto res = core::approx_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "approx_apsp");
}

/// Sends a deliberately awkward mix every round until `rounds_` rounds have
/// fired: node 0 sends three messages to its first neighbor (widths 1, 3,
/// then 0) plus a width-2 broadcast -- several messages on one link and
/// mixed payload widths in a single outbox, as the blocker solver's stages
/// (never Algorithm 1) produce, delivered in send order all the same.
class ChatterProtocol final : public Protocol {
 public:
  ChatterProtocol(NodeId self, Round rounds) : self_(self), rounds_(rounds) {}

  void send_phase(Context& ctx) override {
    if (sent_rounds_ >= rounds_) return;
    if (self_ == 0) {
      const NodeId to = ctx.neighbors().front();
      ctx.send(to, Message(kPing, {1}));
      ctx.send(to, Message(kPing + 1, {2, 3, 4}));
      ctx.send(to, Message(kPing + 2, {}));
    }
    ctx.broadcast(Message(kPing + 3, {static_cast<std::int64_t>(self_), 7}));
    ++sent_rounds_;
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      received_.push_back(env);
    }
  }

  bool quiescent() const override { return sent_rounds_ >= rounds_; }

  const std::vector<Envelope>& received() const { return received_; }

 private:
  NodeId self_;
  Round rounds_;
  Round sent_rounds_ = 0;
  std::vector<Envelope> received_;
};

std::vector<std::unique_ptr<Protocol>> make_chatter(const Graph& g,
                                                    Round rounds) {
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    procs.push_back(std::make_unique<ChatterProtocol>(v, rounds));
  }
  return procs;
}

TEST(DeliveryPlane, MixedWidthAndDuplicateSendsArriveExactly) {
  // Node 1 on a 3-path receives node 0's three targeted messages (in send
  // order) and both neighbors' broadcasts, sender-ascending.
  const Graph g = graph::path(3, {1, 1, 0.0}, 7600);
  Engine engine(g, make_chatter(g, 1));
  engine.run();
  const auto& p1 = static_cast<const ChatterProtocol&>(engine.protocol(1));
  const auto& in = p1.received();
  ASSERT_EQ(in.size(), 5u);
  EXPECT_EQ(in[0].from, 0u);
  EXPECT_EQ(in[0].msg, Message(kPing, {1}));
  EXPECT_EQ(in[1].msg, Message(kPing + 1, {2, 3, 4}));
  EXPECT_EQ(in[2].msg, Message(kPing + 2, {}));
  EXPECT_EQ(in[3].msg, Message(kPing + 3, {0, 7}));
  ASSERT_EQ(in[4].from, 2u);
  EXPECT_EQ(in[4].msg, Message(kPing + 3, {2, 7}));
  // Delivered envelopes carry whole messages: the unused payload tail
  // stays zero.
  EXPECT_EQ(in[0].msg.f[1], 0);
  EXPECT_EQ(in[2].msg.used, 0u);
}

TEST(DeliveryPlane, MessageBytesAccounting) {
  // Star flood: 4 init messages from the hub + 4 leaf replies, each with one
  // used payload word -> 8 * (1 header + 1 field) words... in bytes:
  // 8 messages * (8 + 8*1) = 128.
  const Graph g = graph::star(5, {1, 1, 0.0}, 4);
  Engine engine(g, make_flood(g));
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_messages, 8u);
  EXPECT_EQ(stats.message_bytes, 8u * 16u);
}

TEST(DeliveryPlane, SteadyStateRoundsAllocateNothing) {
  // After a warm-up round has sized every buffer, the plane's held capacity
  // must stay exactly constant across further rounds -- the grow-only
  // guarantee that makes steady-state delivery allocation-free.
  const Graph g = graph::cycle(16, {1, 1, 0.0}, 7700);
  for (const bool dense : {false, true}) {
    EngineOptions opt;
    opt.env.dense = dense;
    Engine engine(g, make_chatter(g, 64), opt);
    engine.step();  // init round
    engine.step();  // first steady-state round sizes the reuse buffers
    engine.step();  // second: every reused buffer has seen a full round
    const std::size_t warm = engine.plane_capacity_bytes();
    EXPECT_GT(warm, 0u);
    for (int i = 0; i < 40; ++i) {
      engine.step();
      ASSERT_EQ(engine.plane_capacity_bytes(), warm)
          << "allocation in steady-state round " << i << " dense=" << dense;
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse scheduler: one live wake per node.  A node that is re-queried with
// the wake it already holds must not grow the wake heap, and a wake moved
// later and back within one round must still fire exactly once, on time.
// ---------------------------------------------------------------------------

/// Node 0 pings node 1 every round for `pings` rounds; node 1 hears every
/// ping and answers each re-query with the same far wake, where it sends
/// once.
class RehintProtocol final : public Protocol {
 public:
  static constexpr Round kFarWake = 100'000;

  RehintProtocol(NodeId self, Round pings) : self_(self), pings_(pings) {}

  void send_phase(Context& ctx) override {
    if (self_ == 0 && ctx.round() <= pings_) {
      ctx.send(1, Message(kPing, {}));
    } else if (self_ == 1 && ctx.round() == kFarWake) {
      ctx.send(0, Message(kPing, {}));
    }
  }

  Round next_send_round(Round now) const override {
    if (self_ == 0) return now < pings_ ? now + 1 : kNeverSends;
    return now < kFarWake ? kFarWake : kNeverSends;
  }

 private:
  NodeId self_;
  Round pings_;
};

TEST(SparseScheduler, SameWakeRehintKeepsThePlaneConstant) {
  const Graph g = graph::path(2, {1, 1, 0.0}, 7800);
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < 2; ++v) {
    procs.push_back(std::make_unique<RehintProtocol>(v, 1000));
  }
  Engine engine(g, std::move(procs));
  for (int i = 0; i < 4; ++i) engine.step();  // init round + warm-up
  const std::size_t warm = engine.plane_capacity_bytes();
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(engine.step(), 1u);
    ASSERT_EQ(engine.plane_capacity_bytes(), warm)
        << "a same-wake re-hint grew the scheduler in round "
        << engine.current_round();
  }
}

/// Node 1 plans to send at kFire.  In round kMove its send phase pushes the
/// plan to kFire + 10, and node 0's ping, heard in the same round's receive
/// phase, pulls it back to kFire: two hints, later and back, in one round.
class WakeMoveProtocol final : public Protocol {
 public:
  static constexpr Round kMove = 5;
  static constexpr Round kFire = 30;

  explicit WakeMoveProtocol(NodeId self) : self_(self) {}

  void send_phase(Context& ctx) override {
    const Round r = ctx.round();
    if (self_ == 0) {
      if (r == kMove) ctx.send(1, Message(kPing, {}));
      return;
    }
    if (r == kMove) fire_ = kFire + 10;
    if (r == fire_) {
      ctx.send(0, Message(kPing, {}));
      fired_at_.push_back(r);
    }
  }

  void receive_phase(Context& ctx) override {
    if (self_ == 1 && ctx.round() == kMove && !ctx.inbox().empty()) {
      fire_ = kFire;
    }
  }

  bool quiescent() const override {
    return self_ == 0 || !fired_at_.empty();
  }

  Round next_send_round(Round now) const override {
    if (now < kMove) return kMove;
    if (self_ == 1 && now < fire_) return fire_;
    return kNeverSends;
  }

  const std::vector<Round>& fired_at() const { return fired_at_; }

 private:
  NodeId self_;
  Round fire_ = kFire;
  std::vector<Round> fired_at_;
};

TEST(SparseScheduler, WakeMovedLaterAndBackFiresOnceAtTheHint) {
  const Graph g = graph::path(2, {1, 1, 0.0}, 7900);
  const auto run = [&](bool dense) {
    std::vector<std::unique_ptr<Protocol>> procs;
    for (NodeId v = 0; v < 2; ++v) {
      procs.push_back(std::make_unique<WakeMoveProtocol>(v));
    }
    EngineOptions opt;
    opt.record_per_round = true;
    opt.env.dense = dense;
    Engine engine(g, std::move(procs), opt);
    const RunStats stats = engine.run();
    const auto& node1 =
        static_cast<const WakeMoveProtocol&>(engine.protocol(1));
    return std::make_pair(stats, node1.fired_at());
  };
  const auto [sparse, sparse_fired] = run(false);
  const auto [dense, dense_fired] = run(true);
  EXPECT_EQ(sparse_fired, std::vector<Round>{WakeMoveProtocol::kFire});
  EXPECT_EQ(dense_fired, sparse_fired);
  EXPECT_EQ(det(sparse), det(dense));
  EXPECT_EQ(sparse.last_message_round, WakeMoveProtocol::kFire);
  EXPECT_EQ(sparse.total_messages, 2u);
  EXPECT_GT(sparse.skipped_rounds, 20u);  // the gap up to kFire is skipped
}

// ---------------------------------------------------------------------------
// Trace recorder: observing a run must not change it, and what it records
// must agree exactly with the engine's own accounting.
// ---------------------------------------------------------------------------

TEST(EngineTrace, RoundEventsMatchPerRoundMessages) {
  const Graph g = graph::erdos_renyi(20, 0.2, {1, 4, 0.0}, 9800);
  obs::TraceRecorder rec;
  EngineOptions opt;
  opt.record_per_round = true;
  opt.env.recorder = &rec;
  Engine engine(g, make_flood(g), opt);
  const RunStats stats = engine.run();

  // Expand the recorded events (rounds + gaps) back into a per-round
  // message vector; it must equal per_round_messages sample for sample
  // (both cover rounds 0..rounds, init round included).
  std::vector<std::uint64_t> from_trace;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::TraceEvent& e = rec.event(i);
    if (e.kind == obs::TraceEvent::Kind::kGap) {
      from_trace.insert(from_trace.end(), e.rounds, 0);
    } else {
      from_trace.push_back(e.messages);
    }
  }
  EXPECT_EQ(from_trace, stats.per_round_messages);
  EXPECT_EQ(rec.total_messages(), stats.total_messages);
  EXPECT_EQ(rec.rounds_seen(), stats.rounds + 1u);  // + init round 0
  EXPECT_EQ(rec.skipped_rounds(), stats.skipped_rounds);
  EXPECT_EQ(rec.dropped_events(), 0u);
  ASSERT_EQ(rec.runs().size(), 1u);
  EXPECT_EQ(rec.runs()[0].nodes, g.node_count());
}

TEST(EngineTrace, RecorderDoesNotPerturbDeterministicStats) {
  const Graph g = graph::erdos_renyi(16, 0.25, {1, 6, 0.0}, 9850);
  const auto run = [&](obs::TraceRecorder* rec) {
    EngineOptions opt;
    opt.record_per_round = true;
    opt.env.recorder = rec;
    Engine engine(g, make_flood(g), opt);
    const RunStats stats = engine.run();
    std::vector<std::int64_t> values;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      values.push_back(
          static_cast<const FloodProtocol&>(engine.protocol(v)).value());
    }
    return std::make_pair(det(stats), values);
  };
  obs::TraceRecorder rec;
  const auto with = run(&rec);
  const auto without = run(nullptr);
  EXPECT_EQ(with.first, without.first);
  EXPECT_EQ(with.second, without.second);
  EXPECT_GT(rec.rounds_seen(), 0u);
}

TEST(EngineTrace, GapEventsCoverFastForwardedRounds) {
  const Graph g = graph::path(8, {1, 1, 0.0}, 9860);
  constexpr Round kFire = 40;
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    procs.push_back(std::make_unique<TimerProtocol>(v, kFire));
  }
  obs::TraceRecorder rec;
  EngineOptions opt;
  opt.env.recorder = &rec;
  Engine engine(g, std::move(procs), opt);
  const RunStats stats = engine.run();
  ASSERT_GT(stats.skipped_rounds, 0u);
  EXPECT_EQ(rec.skipped_rounds(), stats.skipped_rounds);
  std::uint64_t gap_rounds = 0;
  bool saw_gap = false;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::TraceEvent& e = rec.event(i);
    if (e.kind != obs::TraceEvent::Kind::kGap) continue;
    saw_gap = true;
    gap_rounds += e.rounds;
    EXPECT_GT(e.round, 0u);
    EXPECT_LE(e.round + e.rounds - 1, stats.rounds);
  }
  EXPECT_TRUE(saw_gap);
  EXPECT_EQ(gap_rounds, stats.skipped_rounds);
}

TEST(EngineTrace, RoundMessagesHistogramMatchesPerRoundVector) {
  const Graph g = graph::erdos_renyi(18, 0.2, {1, 5, 0.0}, 9870);
  EngineOptions opt;
  opt.record_per_round = true;
  Engine engine(g, make_flood(g), opt);
  const RunStats stats = engine.run();
  obs::Histogram expect;
  for (const auto m : stats.per_round_messages) expect.record(m);
  EXPECT_EQ(stats.round_messages_hist, expect);
  EXPECT_EQ(stats.round_messages_hist.sum(), stats.total_messages);
  EXPECT_EQ(stats.round_messages_hist.count(), stats.rounds + 1u);
}

TEST(SparseDense, StepInterleavedWithRunMatches) {
  const Graph g = graph::grid(4, 4, {1, 3, 0.0}, 9700);
  EngineOptions opt;
  opt.record_per_round = true;

  EngineOptions dense_opt = opt;
  dense_opt.env.dense = true;
  Engine dense(g, make_flood(g), dense_opt);
  const RunStats ds = dense.run();

  // step() is contractually "exactly one round" (no fast-forward); finishing
  // with run() must land on the same deterministic stats regardless of the
  // split point.
  Engine stepped(g, make_flood(g), opt);
  stepped.step();
  stepped.step();
  stepped.step();
  const RunStats ss = stepped.run();

  EXPECT_EQ(det(ss), det(ds));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& dp = static_cast<const FloodProtocol&>(dense.protocol(v));
    const auto& sp = static_cast<const FloodProtocol&>(stepped.protocol(v));
    EXPECT_EQ(sp.value(), dp.value());
    EXPECT_EQ(sp.received(), dp.received());
  }
}

// ---------------------------------------------------------------------------
// Phase call sets: which node runs which phase in which round.  Round 0 runs
// init at every node, then (faultless) receive_phase at every node; a dense
// faultless round runs send_phase and receive_phase at every node.
// Otherwise send_phase runs only in the round named by the node's hint,
// re-queried after its last phase, and receive_phase only at a node whose
// inbox is non-empty.  A scripted protocol logs every call it gets; the
// rules are checked on the logs, and a digest of the logs pins each
// configuration's whole call sequence at every thread count.
// ---------------------------------------------------------------------------

enum PhaseKind : std::uint8_t { kInitCall, kSendCall, kReceiveCall };

struct PhaseCall {
  Round round;
  PhaseKind phase;
  std::uint32_t inbox;
  Round hint;  ///< next_send_round(round) right after the call
};

/// Sends one message per scripted round to a neighbor picked by round.  A
/// message whose field is 1 asks its receiver to reply next round, so a
/// receive can move the receiver's hint; the hint is the next scripted or
/// reply round, or kNeverSends.  Scripted rounds missed while crashed are
/// skipped.
class ScriptProtocol final : public Protocol {
 public:
  ScriptProtocol(NodeId self, std::vector<Round> script)
      : self_(self), script_(std::move(script)) {}

  void init(Context& ctx) override {
    act(ctx);
    log(ctx, kInitCall);
  }

  void send_phase(Context& ctx) override {
    act(ctx);
    log(ctx, kSendCall);
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& e : ctx.inbox()) {
      if (e.msg.f[0] == 1 && reply_ == kNeverSends) {
        reply_ = ctx.round() + 1;
        reply_to_ = e.from;
      }
    }
    log(ctx, kReceiveCall);
  }

  bool quiescent() const override {
    return next_ == script_.size() && reply_ == kNeverSends;
  }

  Round next_send_round(Round now) const override {
    const auto it = std::upper_bound(script_.begin(), script_.end(), now);
    return std::min(it == script_.end() ? kNeverSends : *it, reply_);
  }

  const std::vector<PhaseCall>& calls() const { return calls_; }

 private:
  void act(Context& ctx) {
    const Round r = ctx.round();
    while (next_ < script_.size() && script_[next_] < r) ++next_;
    if (next_ < script_.size() && script_[next_] == r) {
      ++next_;
      const auto nbrs = ctx.neighbors();
      ctx.send(nbrs[(self_ + r) % nbrs.size()],
               Message(kPing, {r % 3 == 0 ? 1 : 0}));
    }
    if (reply_ <= r) {
      if (reply_ == r) ctx.send(reply_to_, Message(kPing, {0}));
      reply_ = kNeverSends;
    }
  }

  void log(const Context& ctx, PhaseKind phase) {
    calls_.push_back({ctx.round(), phase,
                      static_cast<std::uint32_t>(ctx.inbox().size()),
                      next_send_round(ctx.round())});
  }

  NodeId self_;
  std::vector<Round> script_;
  std::size_t next_ = 0;
  Round reply_ = kNeverSends;
  NodeId reply_to_ = 0;
  std::vector<PhaseCall> calls_;
};

struct PhaseRun {
  std::vector<std::vector<PhaseCall>> calls;  ///< per node
  RunStats stats;
};

PhaseRun run_script(const Graph& g, bool dense, std::size_t threads,
                    const FaultPlan* faults) {
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    util::Xoshiro256 rng(0x5c21 + v);
    std::vector<Round> script;
    for (Round r = 0; r < 30; ++r) {
      if (rng.chance(0.12)) script.push_back(r);
    }
    procs.push_back(std::make_unique<ScriptProtocol>(v, std::move(script)));
  }
  EngineOptions opt;
  opt.env = RunEnv{threads, false, dense, nullptr, faults};
  Engine engine(g, std::move(procs), opt);
  PhaseRun run;
  run.stats = engine.run();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    run.calls.push_back(
        static_cast<const ScriptProtocol&>(engine.protocol(v)).calls());
  }
  return run;
}

std::uint64_t call_digest(const PhaseRun& run) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  const auto add = [&](std::uint64_t u) {
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t v = 0; v < run.calls.size(); ++v) {
    for (const PhaseCall& c : run.calls[v]) {
      add(v);
      add(c.round);
      add(c.phase);
      add(c.inbox);
      add(c.hint);
    }
  }
  return h;
}

/// Checks the call-set rules on one run's logs.  Counts in
/// `silent_receives` the receives that left the node's hint at
/// kNeverSends, so the caller can tell the "no send_phase next round" rule
/// was exercised.
void expect_call_rules(const PhaseRun& run, bool dense, bool faults,
                       const std::string& label,
                       std::size_t& silent_receives) {
  for (std::size_t v = 0; v < run.calls.size(); ++v) {
    const auto& calls = run.calls[v];
    const std::string at = label + " node " + std::to_string(v);
    ASSERT_FALSE(calls.empty()) << at;
    EXPECT_EQ(calls[0].round, 0u) << at;
    EXPECT_EQ(calls[0].phase, kInitCall) << at;
    if (!faults) {
      // Round 0 runs every node's receive_phase, empty inbox or not.
      ASSERT_GE(calls.size(), 2u) << at;
      EXPECT_EQ(calls[1].round, 0u) << at;
      EXPECT_EQ(calls[1].phase, kReceiveCall) << at;
    }
    if (dense && !faults) {
      // Every round: send_phase then receive_phase, at every node.
      ASSERT_EQ(calls.size(), 2 * (run.stats.rounds + 1)) << at;
      for (std::size_t i = 2; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].round, i / 2) << at << " call " << i;
        EXPECT_EQ(calls[i].phase, i % 2 == 0 ? kSendCall : kReceiveCall)
            << at << " call " << i;
      }
      continue;
    }
    for (std::size_t i = 1; i < calls.size(); ++i) {
      const PhaseCall& c = calls[i];
      const bool round0_receive = !faults && i == 1;
      if (c.phase == kReceiveCall && !round0_receive) {
        EXPECT_GT(c.inbox, 0u) << at << ": empty receive in round "
                               << c.round;
      }
      if (dense || faults) continue;
      // Sparse, faultless: a node runs no later than its hint, and runs
      // send_phase exactly at it.
      const PhaseCall& prev = calls[i - 1];
      EXPECT_LE(c.round, prev.hint) << at << " call " << i;
      if (c.phase == kSendCall) {
        EXPECT_EQ(c.round, prev.hint) << at << " call " << i;
      }
      if (prev.phase == kReceiveCall && prev.inbox > 0 &&
          prev.hint == Protocol::kNeverSends) {
        ++silent_receives;
      }
    }
    if (!dense && !faults) {
      EXPECT_EQ(calls.back().hint, Protocol::kNeverSends) << at;
    }
  }
}

TEST(PhaseCalls, PinnedForBothSchedulesThreadCountsAndFaultPlans) {
  FaultPlan plan;
  plan.seed = 77;
  plan.delay_prob = 0.3;
  plan.max_delay = 3;
  plan.crashes = {{3, 4, 11}, {5, 6, FaultPlan::kNever}};
  plan.validate();

  struct Case {
    const char* graph;
    bool faults;
    bool dense;
    std::uint64_t digest;  ///< call_digest, captured before the engine's
                           ///< round body was unified
  };
  const Case cases[] = {
      {"er", false, false, 0x765f185b33ccc9ddull},
      {"er", false, true, 0x2eb9341daf5f1933ull},
      {"er", true, false, 0x3e5def754ea4b753ull},
      {"er", true, true, 0x684e77ebe02d5634ull},
      {"path", false, false, 0x21310a61709c8b0dull},
      {"path", false, true, 0x5e01f4257a38d9edull},
      {"path", true, false, 0x546b119b21998a7full},
      {"path", true, true, 0x9a734ce794de4c1dull},
  };
  const Graph er = graph::erdos_renyi(24, 0.2, {1, 4, 0.0}, 5150);
  const Graph path = graph::path(8, {1, 1, 0.0}, 5151);

  std::size_t silent_receives = 0;
  for (const Case& c : cases) {
    const Graph& g = std::string(c.graph) == "er" ? er : path;
    const FaultPlan* faults = c.faults ? &plan : nullptr;
    const std::string label = std::string(c.graph) +
                              (c.faults ? " faults" : " faultless") +
                              (c.dense ? " dense" : " sparse");
    const PhaseRun one = run_script(g, c.dense, 1, faults);
    const PhaseRun four = run_script(g, c.dense, 4, faults);
    EXPECT_FALSE(one.stats.hit_round_limit) << label;
    if (c.faults) {
      EXPECT_GT(one.stats.faults.delayed, 0u) << label;
      EXPECT_GT(one.stats.faults.crash_dropped, 0u) << label;
    }
    EXPECT_EQ(call_digest(four), call_digest(one)) << label;
    EXPECT_EQ(call_digest(one), c.digest)
        << label << ": observed row {\"" << c.graph << "\", "
        << std::boolalpha << c.faults << ", " << c.dense << ", 0x"
        << std::hex << call_digest(one) << std::dec << "ull}";
    expect_call_rules(one, c.dense, c.faults, label, silent_receives);
    if (!c.dense) {
      // The two schedules agree on every deterministic stat.
      EXPECT_EQ(det(one.stats), det(run_script(g, true, 1, faults).stats))
          << label;
    }
  }
  EXPECT_GT(silent_receives, 0u);
}

}  // namespace
}  // namespace dapsp::congest
