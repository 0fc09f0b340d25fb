#include <gtest/gtest.h>

#include <numeric>

#include "baseline/bf_apsp.hpp"
#include "congest/engine.hpp"
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
    opt.threads = threads;
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

/// Restores the process-wide engine overrides on scope exit.
struct EngineOverrideGuard {
  ~EngineOverrideGuard() {
    Engine::set_force_dense(false);
    Engine::set_force_threads(Engine::kNoThreadOverride);
  }
};

using SolverRun = std::pair<RunStats, std::vector<std::vector<Weight>>>;

/// Runs `solve` dense single-threaded, then sparse with 1 thread and with
/// the shared pool; everything deterministic must match exactly.
template <typename Solver>
void expect_sparse_matches_dense(const Solver& solve, const char* label) {
  EngineOverrideGuard guard;
  Engine::set_force_dense(true);
  Engine::set_force_threads(1);
  const SolverRun dense = solve();
  EXPECT_EQ(dense.first.skipped_rounds, 0u) << label << ": dense skipped";

  Engine::set_force_dense(false);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    Engine::set_force_threads(threads);
    const SolverRun sparse = solve();
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
      [&] {
        const auto res = core::pipelined_apsp(g, delta);
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
      [&] {
        const auto res = core::pipelined_kssp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "pipelined_kssp+scramble");
}

TEST(SparseDense, BellmanFordApsp) {
  const Graph g = graph::erdos_renyi(15, 0.25, {1, 7, 0.0}, 9200);
  expect_sparse_matches_dense(
      [&] {
        const auto res = baseline::bf_apsp(g);
        return SolverRun{res.stats, res.dist};
      },
      "bf_apsp");
}

TEST(SparseDense, BlockerApsp) {
  const Graph g = graph::erdos_renyi(12, 0.35, {1, 5, 0.0}, 9300);
  expect_sparse_matches_dense(
      [&] {
        const auto res = core::blocker_apsp(g, {});
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
      [&] {
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
      [&] {
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

  EngineOverrideGuard guard;
  Engine::set_force_dense(true);
  Engine dense(g, make(), opt);
  const RunStats ds = dense.run();
  Engine::set_force_dense(false);
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
// Delivery plane (struct-of-arrays message columns): differential across
// schedulers and thread counts, exact payload reconstruction including mixed
// widths and duplicate sends on one link, byte accounting, and the
// steady-state zero-allocation guarantee.
// ---------------------------------------------------------------------------

/// Runs `solve` once as the dense single-threaded oracle, then under both
/// schedulers at 1, 4, and 8 worker threads; every deterministic stat
/// (including message_bytes) and every output must be bit-identical.
template <typename Solver>
void expect_plane_invariant(const Solver& solve, const char* label) {
  EngineOverrideGuard guard;
  Engine::set_force_dense(true);
  Engine::set_force_threads(1);
  const SolverRun oracle = solve();
  for (const bool dense : {false, true}) {
    Engine::set_force_dense(dense);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      Engine::set_force_threads(threads);
      const SolverRun run = solve();
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
      [&] {
        const auto res = core::pipelined_kssp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "pipelined_kssp");
}

TEST(DeliveryPlane, BellmanFordApspInvariant) {
  const Graph g = graph::erdos_renyi(15, 0.25, {1, 7, 0.0}, 7200);
  expect_plane_invariant(
      [&] {
        const auto res = baseline::bf_apsp(g);
        return SolverRun{res.stats, res.dist};
      },
      "bf_apsp");
}

TEST(DeliveryPlane, BlockerApspInvariant) {
  const Graph g = graph::erdos_renyi(12, 0.35, {1, 5, 0.0}, 7300);
  expect_plane_invariant(
      [&] {
        const auto res = core::blocker_apsp(g, {});
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
      [&] {
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
      [&] {
        const auto res = core::approx_apsp(g, p);
        return SolverRun{res.stats, res.dist};
      },
      "approx_apsp");
}

/// Sends a deliberately awkward mix every round until `rounds_` rounds have
/// fired: node 0 sends three messages to its first neighbor (widths 1, 3,
/// then 0) plus a width-2 broadcast -- duplicate link sends and mixed
/// payload widths in a single outbox, the two paths that force the message
/// columns off their uniform fast lane.
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
  // Reconstructed envelopes zero their unused payload tail, exactly like
  // the old whole-struct copies did.
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
    EngineOverrideGuard guard;
    Engine::set_force_dense(dense);
    Engine engine(g, make_chatter(g, 64));
    engine.step();  // init round
    engine.step();  // first steady-state round sizes the reuse buffers
    engine.step();  // second: mixed-width ends_ columns exist everywhere
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
// Trace recorder: observing a run must not change it, and what it records
// must agree exactly with the engine's own accounting.
// ---------------------------------------------------------------------------

TEST(EngineTrace, RoundEventsMatchPerRoundMessages) {
  const Graph g = graph::erdos_renyi(20, 0.2, {1, 4, 0.0}, 9800);
  obs::TraceRecorder rec;
  EngineOptions opt;
  opt.record_per_round = true;
  opt.recorder = &rec;
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
    opt.recorder = rec;
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
  opt.recorder = &rec;
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

  EngineOverrideGuard guard;
  Engine::set_force_dense(true);
  Engine dense(g, make_flood(g), opt);
  const RunStats ds = dense.run();
  Engine::set_force_dense(false);

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

}  // namespace
}  // namespace dapsp::congest
