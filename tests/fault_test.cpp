// Tests for the deterministic fault-injection plane (congest/faults.hpp),
// the reliable-transport adapter (congest/reliable.hpp), and the service
// layer's partition safety net.  Registered under the `faults` ctest label
// so CI can run the fault matrix as its own tier (ctest -L faults).
//
// The load-bearing property throughout: a (seed, plan) pair fully
// determines every fault outcome.  Thread counts, the sparse/dense
// scheduler choice, and re-runs must be bit-identical -- fate decisions are
// counter-based hashes, never a shared RNG stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "congest/primitives.hpp"
#include "congest/reliable.hpp"
#include "core/blocker_apsp.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "seq/dijkstra.hpp"
#include "service/oracle.hpp"

namespace dapsp::congest {
namespace {

using graph::Graph;
using graph::kInfDist;
using graph::NodeId;
using graph::Weight;

constexpr std::uint32_t kTagDist = 901;
constexpr std::uint32_t kTagBurst = 902;

/// Monotone distributed Bellman-Ford SSSP: rebroadcast on improvement.
/// Monotonicity makes it safe under duplication, delay, and reordering
/// without any transport -- exactly the protocol class the fault plane's
/// behavioral tests need.
class BfNode final : public Protocol {
 public:
  BfNode(const Graph& g, NodeId self, NodeId source)
      : g_(g), self_(self), source_(source) {}

  void init(Context& ctx) override {
    if (self_ == source_) {
      dist_ = 0;
      ctx.broadcast(Message(kTagDist, {0}));
    }
  }

  void send_phase(Context& ctx) override {
    if (improved_) {
      ctx.broadcast(Message(kTagDist, {dist_}));
      improved_ = false;
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagDist) continue;
      const Weight w = weight_from(env.from);
      const Weight cand = env.msg.f[0] + w;
      if (dist_ == kInfDist || cand < dist_) {
        dist_ = cand;
        improved_ = true;
      }
    }
  }

  bool quiescent() const override { return !improved_; }

  Weight dist() const { return dist_; }

 private:
  Weight weight_from(NodeId from) const {
    Weight best = kInfDist;
    for (const auto& e : g_.out_edges(self_)) {
      if (e.to == from && e.weight < best) best = e.weight;
    }
    return best;
  }

  const Graph& g_;
  NodeId self_;
  NodeId source_;
  Weight dist_ = kInfDist;
  bool improved_ = false;
};

std::vector<std::unique_ptr<Protocol>> make_bf(const Graph& g, NodeId source) {
  std::vector<std::unique_ptr<Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    procs.push_back(std::make_unique<BfNode>(g, v, source));
  }
  return procs;
}

std::vector<Weight> bf_dists(const Engine& e) {
  std::vector<Weight> out;
  for (NodeId v = 0; v < e.graph().node_count(); ++v) {
    out.push_back(static_cast<const BfNode&>(e.protocol(v)).dist());
  }
  return out;
}

/// Deterministic subset of RunStats (wall-clock excluded), fault counters
/// included: they must match bit-for-bit across threads and schedulers.
struct DetStats {
  Round rounds;
  Round last_message_round;
  std::uint64_t total_messages;
  std::uint64_t max_link_congestion;
  std::uint64_t max_link_total;
  bool hit_round_limit;
  FaultStats faults;

  friend bool operator==(const DetStats&, const DetStats&) = default;
};

DetStats det(const RunStats& s) {
  return {s.rounds,          s.last_message_round, s.total_messages,
          s.max_link_congestion, s.max_link_total, s.hit_round_limit,
          s.faults};
}

// ---------------------------------------------------------------------------
// FaultPlan: spec grammar, validation, enabledness.
// ---------------------------------------------------------------------------

TEST(FaultPlan, SpecRoundTrips) {
  const std::string spec =
      "drop=0.1,dup=0.05,delay=0.2:3,bw=2,crash=4@10..20,seed=99";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_DOUBLE_EQ(plan.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.dup_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.2);
  EXPECT_EQ(plan.max_delay, 3u);
  EXPECT_EQ(plan.link_bandwidth, 2u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, 4u);
  EXPECT_EQ(plan.crashes[0].at, 10u);
  EXPECT_EQ(plan.crashes[0].revive, 20u);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_TRUE(plan.enabled());
  // The canonical spec parses back to the identical plan.
  EXPECT_EQ(FaultPlan::parse(plan.spec()), plan);
}

TEST(FaultPlan, ParseDefaultsAndRepeatedCrash) {
  const FaultPlan plan = FaultPlan::parse("delay=0.5,crash=1@4,crash=2@6..9");
  EXPECT_EQ(plan.max_delay, 1u);  // delay without :K
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].revive, FaultPlan::kNever);
  EXPECT_EQ(plan.crashes[1].revive, 9u);
  EXPECT_EQ(FaultPlan::parse(plan.spec()), plan);
}

TEST(FaultPlan, BadSpecsThrow) {
  for (const char* bad :
       {"drop", "drop=", "drop=2.0", "drop=-0.1", "nope=1", "delay=0.5:0",
        "bw=x", "crash=3", "crash=@4", "crash=3@9..2", "seed=", ",",
        "crash=1@4,crash=1@6"}) {
    EXPECT_THROW(FaultPlan::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultPlan, DisabledPlansAreInert) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  // A seed alone configures no fault.
  EXPECT_FALSE(FaultPlan::parse("seed=123").enabled());
  FaultPlan delay_only;
  delay_only.max_delay = 5;  // max_delay without delay_prob never fires
  EXPECT_FALSE(delay_only.enabled());
}

TEST(FaultPlan, ValidateRejectsNonsense) {
  FaultPlan p;
  p.drop_prob = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.delay_prob = 0.5;
  p.max_delay = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.crashes.push_back({3, 10, 5});  // revive before crash
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Null-plan identity: a disabled plan must be indistinguishable from no
// plan, bit for bit -- the acceptance bar for "off by default costs
// nothing".
// ---------------------------------------------------------------------------

TEST(FaultEngine, DisabledPlanBitIdenticalToNoPlan) {
  const Graph g = graph::erdos_renyi(14, 0.3, {0, 6, 0.2}, 501);
  Engine plain(g, make_bf(g, 0));
  const RunStats base = plain.run();
  ASSERT_FALSE(base.faults.any());

  const FaultPlan disabled = FaultPlan::parse("seed=42");
  EngineOptions opt;
  opt.env.faults = &disabled;
  Engine faulted(g, make_bf(g, 0), opt);
  const RunStats got = faulted.run();
  EXPECT_EQ(det(got), det(base));
  EXPECT_EQ(bf_dists(faulted), bf_dists(plain));
  EXPECT_FALSE(got.faults.any());
}

// ---------------------------------------------------------------------------
// Determinism sweep: same (seed, plan) => bit-identical stats and outcomes
// across thread counts and across the sparse/dense schedulers.
// ---------------------------------------------------------------------------

class FaultDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultDeterminism, BitIdenticalAcrossThreadsAndSchedulers) {
  const FaultPlan plan = FaultPlan::parse(GetParam());
  const Graph g = graph::erdos_renyi(14, 0.35, {0, 5, 0.25}, 601);

  const auto run_once = [&](bool dense, std::size_t threads) {
    EngineOptions opt;
    opt.env = {threads, false, dense, nullptr, &plan};
    opt.max_rounds = 5000;
    Engine e(g, make_bf(g, 0), opt);
    const RunStats stats = e.run();
    return std::pair{det(stats), bf_dists(e)};
  };

  const auto reference = run_once(/*dense=*/true, /*threads=*/1);
  EXPECT_TRUE(reference.first.faults.any()) << GetParam();
  for (const bool dense : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      const auto got = run_once(dense, threads);
      EXPECT_EQ(got.first, reference.first)
          << GetParam() << " dense=" << dense << " threads=" << threads;
      EXPECT_EQ(got.second, reference.second)
          << GetParam() << " dense=" << dense << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultDeterminism,
    ::testing::Values("drop=0.3,seed=11", "dup=0.4,seed=12",
                      "delay=0.5:4,seed=13", "bw=1,seed=14",
                      "crash=2@3..9,seed=15",
                      "drop=0.15,dup=0.2,delay=0.3:2,bw=2,crash=1@4..12,"
                      "seed=16"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(FaultEngine, SameSeedSameRunDifferentSeedDifferentRun) {
  const Graph g = graph::erdos_renyi(12, 0.4, {1, 4, 0.0}, 602);
  const auto run_with_seed = [&](std::uint64_t seed) {
    FaultPlan plan = FaultPlan::parse("drop=0.4");
    plan.seed = seed;
    EngineOptions opt;
    opt.env.faults = &plan;
    Engine e(g, make_bf(g, 0), opt);
    return e.run().faults;
  };
  EXPECT_EQ(run_with_seed(100), run_with_seed(100));
  // Not a hard guarantee for every pair of seeds, but for this graph and
  // rate two fixed seeds diverging is part of the regression surface.
  EXPECT_NE(run_with_seed(100), run_with_seed(101));
}

// ---------------------------------------------------------------------------
// Fault pin table: links that carry several messages in one round.  The
// flood above, like Algorithm 1, puts at most one message on a link per
// round, so the sweeps above never draw a fate with a message index above
// 0.  Here every node puts four messages of mixed widths on one link each
// round, and each row pins the paper quantities, every fault counter and a
// digest of what every node received, in which round, from whom and in
// which order.
// A fate draw keyed by the wrong index, a frame admitted out of send order
// or a receiver filled out of sender order changes the row.  Each row runs
// sparse and dense, on 1 and 4 engine threads, and must repeat exactly; on
// a mismatch the observed row prints in the table's own format.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kTagChatter = 903;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Folds `v` into the FNV-1a 64 digest `h`, byte by byte.
void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// For `rounds` rounds from round 0, sends three messages of widths 1, 3
/// and 0 on one link (rotating over its neighbors by round) plus a width-2
/// broadcast, so that link carries four messages that round.  Folds every
/// received (round, sender, tag, used, fields) into an FNV-1a 64 digest.
class ChatterNode final : public Protocol {
 public:
  ChatterNode(NodeId self, Round rounds) : self_(self), rounds_(rounds) {}

  void init(Context& ctx) override { chatter(ctx); }
  void send_phase(Context& ctx) override { chatter(ctx); }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      fnv1a(digest_, ctx.round());
      fnv1a(digest_, env.from);
      fnv1a(digest_, env.msg.tag);
      fnv1a(digest_, env.msg.used);
      for (std::uint32_t i = 0; i < env.msg.used; ++i) {
        fnv1a(digest_, static_cast<std::uint64_t>(env.msg.f[i]));
      }
    }
  }

  bool quiescent() const override { return sent_ >= rounds_; }
  Round next_send_round(Round now) const override {
    return sent_ < rounds_ ? now + 1 : kNeverSends;
  }

  std::uint64_t digest() const { return digest_; }

 private:
  void chatter(Context& ctx) {
    if (sent_ >= rounds_) return;
    const auto nbrs = ctx.neighbors();
    const auto r = static_cast<std::int64_t>(ctx.round());
    const auto me = static_cast<std::int64_t>(self_);
    if (!nbrs.empty()) {
      const NodeId to = nbrs[ctx.round() % nbrs.size()];
      ctx.send(to, Message(kTagChatter, {me}));
      ctx.send(to, Message(kTagChatter + 1, {me, r, 3 * me + r}));
      ctx.send(to, Message(kTagChatter + 2, {}));
    }
    ctx.broadcast(Message(kTagChatter + 3, {me, r}));
    ++sent_;
  }

  NodeId self_;
  Round rounds_;
  Round sent_ = 0;
  std::uint64_t digest_ = kFnvBasis;
};

struct FaultPin {
  Round rounds;
  std::uint64_t messages;
  std::uint64_t message_bytes;
  FaultStats faults;
  std::uint64_t digest;  ///< every node's receive digest, in node order

  friend bool operator==(const FaultPin&, const FaultPin&) = default;
  friend std::ostream& operator<<(std::ostream& os, const FaultPin& v) {
    const FaultStats& f = v.faults;
    os << '{' << v.rounds << ", " << v.messages << ", " << v.message_bytes
       << ", {" << f.dropped << ", " << f.duplicated << ", " << f.delayed
       << ", " << f.deferred << ", " << f.crash_dropped << ", "
       << f.delivered << ", " << f.max_backlog << "}, 0x" << std::hex
       << v.digest << std::dec << "ull}";
    return os;
  }
};

struct FaultPinCase {
  const char* plan;
  FaultPin want;
};

// {rounds, messages, message_bytes, {dropped, duplicated, delayed,
//  deferred, crash_dropped, delivered, max_backlog}, digest}
const FaultPinCase kFaultPins[] = {
    {"dup=0.5,seed=21",
     {6, 2388, 53472, {0, 1199, 0, 0, 0, 3587, 604}, 0xd0fab7626f8a5f2ull}},
    {"drop=0.2,dup=0.3,delay=0.4:3,seed=22",
     {8, 2388, 53472, {473, 585, 972, 0, 0, 2500, 748},
      0x5e68c4a787d474baull}},
    {"bw=1,dup=0.3,delay=0.3:2,seed=23",
     {18, 2388, 53472, {0, 736, 949, 2482, 0, 3124, 1821},
      0xde21a6ebe8ce3ecdull}},
    {"drop=0.15,bw=2,crash=3@2..6,seed=24",
     {10, 2388, 53472, {340, 0, 0, 451, 41, 2007, 418},
      0x81aabddfb07fd289ull}},
};

TEST(FaultPins, MultiMessageLinksRepeatTheirRows) {
  const Graph g = graph::erdos_renyi(40, 0.15, {1, 5, 0.0}, 801);
  constexpr Round kChatterRounds = 6;
  for (const FaultPinCase& c : kFaultPins) {
    const FaultPlan plan = FaultPlan::parse(c.plan);
    for (const bool dense : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::unique_ptr<Protocol>> procs;
        for (NodeId v = 0; v < g.node_count(); ++v) {
          procs.push_back(std::make_unique<ChatterNode>(v, kChatterRounds));
        }
        EngineOptions opt;
        opt.env = {threads, false, dense, nullptr, &plan};
        Engine e(g, std::move(procs), opt);
        const RunStats s = e.run();
        FaultPin got{s.rounds, s.total_messages, s.message_bytes, s.faults,
                     kFnvBasis};
        for (NodeId v = 0; v < g.node_count(); ++v) {
          fnv1a(got.digest,
                static_cast<const ChatterNode&>(e.protocol(v)).digest());
        }
        EXPECT_EQ(got, c.want) << c.plan << " dense=" << dense
                               << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Behavioral semantics, one fault mode at a time.
// ---------------------------------------------------------------------------

TEST(FaultBehavior, DropEverythingStopsTheFlood) {
  const Graph g = graph::path(6, {1, 1, 0.0}, 701, false);
  const FaultPlan plan = FaultPlan::parse("drop=1.0,seed=1");
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine e(g, make_bf(g, 0), opt);
  const RunStats stats = e.run();
  const auto dists = bf_dists(e);
  EXPECT_EQ(dists[0], 0);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    EXPECT_EQ(dists[v], kInfDist) << v;
  }
  EXPECT_GT(stats.faults.dropped, 0u);
  EXPECT_EQ(stats.faults.delivered, 0u);
  // The sender still paid for the send: RunStats keeps send-side meaning.
  EXPECT_GT(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_messages, stats.faults.dropped);
}

TEST(FaultBehavior, DuplicationIsHarmlessForMonotoneProtocols) {
  const Graph g = graph::erdos_renyi(12, 0.35, {0, 5, 0.2}, 702);
  const FaultPlan plan = FaultPlan::parse("dup=1.0,seed=2");
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine e(g, make_bf(g, 0), opt);
  const RunStats stats = e.run();
  EXPECT_EQ(stats.faults.duplicated, stats.total_messages);
  EXPECT_EQ(stats.faults.delivered, 2 * stats.total_messages);
  EXPECT_EQ(bf_dists(e), seq::dijkstra(g, 0).dist);
}

/// Inputs of the four tree primitives on one graph: a broadcast list, a
/// value per node and 0-2 gather items per node.
struct TreeInputs {
  explicit TreeInputs(const Graph& g)
      : values(g.node_count()), items(g.node_count()) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      values[v] = (v * 37) % 11;
      for (std::int64_t j = 0; j < v % 3; ++j) {
        items[v].push_back({v, j, static_cast<std::int64_t>(v) * 10 + j});
      }
    }
  }
  std::vector<std::int64_t> bcast = {5, -1, 9, 0, 7, 3};
  std::vector<std::int64_t> values;
  std::vector<std::vector<GatherItem>> items;
};

const Graph kTreeGraphs[] = {graph::grid(4, 4, {1, 5, 0.2}, 704),
                             graph::erdos_renyi(24, 0.2, {0, 5, 0.2}, 705)};

TEST(FaultBehavior, TreePrimitivesTakeEachDuplicateOnce) {
  // A duplicated join, value, report or item must count once: under each
  // duplicating plan every primitive returns its faultless answer.  Before
  // the primitives ignored repeats, the BFS tree listed a child twice and
  // the convergecast waited for reports that never came.  Under bw=1 the
  // duplicates queue behind the values, so the gather's closing broadcast
  // (3 values an item, 26 items on the grid) arrives late.
  for (const Graph& g : kTreeGraphs) {
    const TreeInputs in(g);
    const BfsTree tree0 = build_bfs_tree(g, 0);
    const auto copies0 = broadcast_values(g, tree0, in.bcast);
    const auto max0 = converge_max(g, tree0, in.values);
    const auto items0 = gather_to_all(g, tree0, in.items);
    for (const char* spec :
         {"dup=0.5,seed=6", "dup=0.3,seed=5", "bw=1,dup=0.5,seed=6"}) {
      SCOPED_TRACE(std::string(spec) + " n=" +
                   std::to_string(g.node_count()));
      const FaultPlan plan = FaultPlan::parse(spec);
      RunEnv env;
      env.faults = &plan;
      RunStats stats;
      const BfsTree tree = build_bfs_tree(g, 0, &stats, env);
      EXPECT_EQ(tree.parent, tree0.parent);
      EXPECT_EQ(tree.children, tree0.children);
      EXPECT_EQ(tree.height, tree0.height);
      EXPECT_EQ(broadcast_values(g, tree, in.bcast, &stats, env), copies0);
      EXPECT_EQ(converge_max(g, tree, in.values, &stats, env), max0);
      EXPECT_EQ(gather_to_all(g, tree, in.items, &stats, env), items0);
      EXPECT_GT(stats.faults.duplicated, 0u);
    }
  }
}

TEST(FaultBehavior, TreePrimitivesSurviveLateDelivery) {
  // A delay loses nothing, so every primitive still returns its faultless
  // answer; it only arrives after the synchronous round budget.  Under a
  // fault plan the primitives run to quiescence instead, and a node that
  // owes its parent a convergecast report is not quiescent, or a report
  // held back by a delay would never be sent.
  for (const Graph& g : kTreeGraphs) {
    const TreeInputs in(g);
    const BfsTree tree0 = build_bfs_tree(g, 0);
    const auto copies0 = broadcast_values(g, tree0, in.bcast);
    const auto max0 = converge_max(g, tree0, in.values);
    const auto items0 = gather_to_all(g, tree0, in.items);
    for (const char* spec : {"delay=0.3:2,seed=6", "delay=0.5:4,seed=13"}) {
      SCOPED_TRACE(std::string(spec) + " n=" +
                   std::to_string(g.node_count()));
      const FaultPlan plan = FaultPlan::parse(spec);
      RunEnv env;
      env.faults = &plan;
      RunStats stats;
      // A late token may adopt another parent: the tree must still span g.
      const BfsTree tree = build_bfs_tree(g, 0, &stats, env);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_TRUE(tree.reached(v)) << v;
      }
      EXPECT_EQ(broadcast_values(g, tree0, in.bcast, &stats, env), copies0);
      EXPECT_EQ(converge_max(g, tree0, in.values, &stats, env), max0);
      EXPECT_EQ(gather_to_all(g, tree0, in.items, &stats, env), items0);
      EXPECT_GT(stats.faults.delayed, 0u);
    }
  }
}

TEST(FaultBehavior, BlockerApspExactUnderDuplication) {
  // Algorithm 3 runs all four primitives: its distances under each
  // duplicating or delaying plan are the faultless ones.
  const Graph g = graph::grid(4, 4, {0, 8, 0.0}, 2);
  const core::BlockerApspResult want = core::blocker_apsp(g, {});
  for (const char* spec :
       {"dup=0.5,seed=6", "dup=0.3,seed=5", "bw=1,dup=0.5,seed=6",
        "delay=0.3:2,seed=6", "delay=0.5:4,seed=13"}) {
    SCOPED_TRACE(spec);
    const FaultPlan plan = FaultPlan::parse(spec);
    core::BlockerApspParams p;
    p.env.faults = &plan;
    const core::BlockerApspResult got = core::blocker_apsp(g, p);
    EXPECT_EQ(got.dist, want.dist);
    EXPECT_GT(got.stats.faults.duplicated + got.stats.faults.delayed, 0u);
  }
}

TEST(FaultBehavior, DelayStretchesTheRunButKeepsBfExact) {
  const Graph g = graph::path(7, {1, 4, 0.0}, 703, false);
  Engine plain(g, make_bf(g, 0));
  const Round base_rounds = plain.run().rounds;

  const FaultPlan plan = FaultPlan::parse("delay=1.0:3,seed=3");
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine e(g, make_bf(g, 0), opt);
  const RunStats stats = e.run();
  EXPECT_GT(stats.faults.delayed, 0u);
  EXPECT_GT(stats.rounds, base_rounds);
  // Every delayed copy still lands, and monotone BF converges to the truth.
  EXPECT_EQ(bf_dists(e), seq::dijkstra(g, 0).dist);
}

/// Sends a burst of `count` messages over one link in round 0, then stays
/// silent.  Exercises per-link bandwidth caps and the engine's
/// keep-running-while-frames-are-pending logic.
class BurstSender final : public Protocol {
 public:
  explicit BurstSender(int count) : count_(count) {}
  void init(Context& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(1, Message(kTagBurst, {i}));
  }

 private:
  int count_;
};

class BurstReceiver final : public Protocol {
 public:
  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      arrivals_.push_back({ctx.round(), env.msg.f[0]});
    }
  }
  const std::vector<std::pair<Round, std::int64_t>>& arrivals() const {
    return arrivals_;
  }

 private:
  std::vector<std::pair<Round, std::int64_t>> arrivals_;
};

TEST(FaultBehavior, BandwidthCapSpreadsABurstAcrossRounds) {
  const Graph g = graph::path(2, {1, 1, 0.0}, 704, false);
  const FaultPlan plan = FaultPlan::parse("bw=1,seed=4");
  std::vector<std::unique_ptr<Protocol>> procs;
  procs.push_back(std::make_unique<BurstSender>(4));
  procs.push_back(std::make_unique<BurstReceiver>());
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine e(g, std::move(procs), opt);
  const RunStats stats = e.run();

  const auto& arrivals =
      static_cast<const BurstReceiver&>(e.protocol(1)).arrivals();
  ASSERT_EQ(arrivals.size(), 4u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // One per round, FIFO within the link, starting at the send round.
    EXPECT_EQ(arrivals[i].first, i) << i;
    EXPECT_EQ(arrivals[i].second, static_cast<std::int64_t>(i)) << i;
  }
  EXPECT_EQ(stats.faults.deferred, 3u);
  EXPECT_EQ(stats.faults.delivered, 4u);
  EXPECT_GT(stats.faults.max_backlog, 0u);
}

TEST(FaultBehavior, CrashStopDiscardsDeliveriesAndSilencesTheNode) {
  // Star with a crashed-from-the-start center: the source's init broadcast
  // dies at the center's door and nothing ever crosses.
  const Graph g = graph::star(6, {1, 1, 0.0}, 705);
  const FaultPlan plan = FaultPlan::parse("crash=0@0,seed=5");
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine e(g, make_bf(g, 1), opt);
  const RunStats stats = e.run();
  EXPECT_GT(stats.faults.crash_dropped, 0u);
  const auto dists = bf_dists(e);
  EXPECT_EQ(dists[1], 0);
  EXPECT_EQ(dists[0], kInfDist);
  for (NodeId v = 2; v < g.node_count(); ++v) {
    EXPECT_EQ(dists[v], kInfDist) << v;
  }
}

TEST(FaultBehavior, AccountingIdentityHolds) {
  // Every admitted copy is eventually either dropped at admission or
  // delivered: delivered == sent - dropped + duplicated (no crashes, run to
  // quiescence with nothing pending).
  const Graph g = graph::erdos_renyi(13, 0.35, {0, 5, 0.2}, 706);
  const FaultPlan plan = FaultPlan::parse("drop=0.25,dup=0.3,delay=0.4:3,seed=6");
  EngineOptions opt;
  opt.env.faults = &plan;
  opt.max_rounds = 5000;
  Engine e(g, make_bf(g, 0), opt);
  const RunStats stats = e.run();
  ASSERT_FALSE(stats.hit_round_limit);
  EXPECT_EQ(stats.faults.delivered,
            stats.total_messages - stats.faults.dropped +
                stats.faults.duplicated);
  EXPECT_EQ(stats.faults.crash_dropped, 0u);
}

// ---------------------------------------------------------------------------
// ReliableTransport: exact results over a lossy plane.
// ---------------------------------------------------------------------------

/// Runs reliable BF-SSSP from node 0 and returns (per-node distances,
/// result).
std::pair<std::vector<Weight>, ReliableResult> reliable_bf(
    const Graph& g, const FaultPlan* plan, std::size_t threads = 0,
    Round max_rounds = 20000) {
  EngineOptions opt;
  opt.env.faults = plan;
  opt.env.threads = threads;
  opt.max_rounds = max_rounds;
  std::vector<Weight> dists(g.node_count(), kInfDist);
  const ReliableResult res = run_reliable(
      g,
      [&](NodeId v) { return std::make_unique<BfNode>(g, v, 0); },
      opt, {},
      [&](NodeId v, ReliableTransport& t) {
        dists[v] = static_cast<const BfNode&>(t.inner()).dist();
      });
  return {dists, res};
}

TEST(Reliable, ExactDistancesAtTenPercentLoss) {
  const Graph g = graph::grid(3, 4, {0, 7, 0.15}, 801);
  const FaultPlan plan = FaultPlan::parse("drop=0.1,seed=21");
  const auto [dists, res] = reliable_bf(g, &plan);
  ASSERT_FALSE(res.stats.hit_round_limit);
  EXPECT_EQ(dists, seq::dijkstra(g, 0).dist);
  EXPECT_GT(res.stats.faults.dropped, 0u);
  EXPECT_GT(res.transport.retransmits, 0u);
}

TEST(Reliable, ExactDistancesAtHeavyCombinedFaults) {
  const Graph g = graph::grid(3, 3, {1, 6, 0.0}, 802);
  const FaultPlan plan =
      FaultPlan::parse("drop=0.25,dup=0.15,delay=0.3:2,bw=2,seed=22");
  const auto [dists, res] = reliable_bf(g, &plan);
  ASSERT_FALSE(res.stats.hit_round_limit);
  EXPECT_EQ(dists, seq::dijkstra(g, 0).dist);
  EXPECT_GT(res.transport.duplicates_dropped, 0u);
}

TEST(Reliable, CrashWithReviveRecovers) {
  // Node 2 is the only route 0 -> 3,4; it sleeps through rounds [3, 30).
  // Retransmission carries the frontier across once it wakes: the transport
  // masks an outage, though never a permanent crash.
  const Graph g = graph::path(5, {1, 4, 0.0}, 803, false);
  const FaultPlan plan = FaultPlan::parse("crash=2@3..30,seed=23");
  const auto [dists, res] = reliable_bf(g, &plan);
  ASSERT_FALSE(res.stats.hit_round_limit);
  EXPECT_EQ(dists, seq::dijkstra(g, 0).dist);
  EXPECT_GT(res.stats.faults.crash_dropped, 0u);
  EXPECT_GT(res.stats.rounds, 30u);
}

TEST(Reliable, NoFaultsMeansNoRetransmits) {
  const Graph g = graph::grid(3, 4, {1, 5, 0.0}, 804);
  const auto [dists, res] = reliable_bf(g, nullptr);
  EXPECT_EQ(dists, seq::dijkstra(g, 0).dist);
  EXPECT_EQ(res.transport.retransmits, 0u);
  EXPECT_EQ(res.transport.duplicates_dropped, 0u);
  EXPECT_FALSE(res.stats.faults.any());
}

TEST(Reliable, DeterministicAcrossThreadCounts) {
  const Graph g = graph::erdos_renyi(12, 0.35, {0, 5, 0.2}, 805);
  const FaultPlan plan = FaultPlan::parse("drop=0.2,delay=0.25:2,seed=24");
  const auto a = reliable_bf(g, &plan, /*threads=*/1);
  const auto b = reliable_bf(g, &plan, /*threads=*/8);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(det(a.second.stats), det(b.second.stats));
  EXPECT_EQ(a.second.transport.data_frames, b.second.transport.data_frames);
  EXPECT_EQ(a.second.transport.retransmits, b.second.transport.retransmits);
  EXPECT_EQ(a.second.transport.pure_acks, b.second.transport.pure_acks);
  EXPECT_EQ(a.second.transport.duplicates_dropped,
            b.second.transport.duplicates_dropped);
}

TEST(Reliable, RoundsGrowWithLossRate) {
  const Graph g = graph::grid(3, 4, {1, 5, 0.0}, 806);
  const auto clean = reliable_bf(g, nullptr);
  const FaultPlan lossy = FaultPlan::parse("drop=0.3,seed=25");
  const auto faulted = reliable_bf(g, &lossy);
  EXPECT_EQ(clean.first, faulted.first);
  EXPECT_GT(faulted.second.stats.rounds, clean.second.stats.rounds);
}

// The transport on its own, outside the engine: two adapters trade their
// wire messages (data frames and acks) over a hand-driven link that drops
// ~15% of them (seeded, both directions).  The inner protocol -- a sender
// streaming numbered messages to a consumer -- must still see exactly-once,
// in-order delivery, and the loss must have forced real retransmissions.

/// Collects a node's outgoing wire messages for the lossy link.
class LinkContext final : public Context {
 public:
  LinkContext(NodeId self, Round round, NodeId peer,
              std::span<const Envelope> inbox, bool may_send)
      : Context(self, round, inbox, may_send), peer_(peer) {}

  NodeId node_count() const noexcept override { return 2; }
  std::span<const NodeId> neighbors() const noexcept override {
    return {&peer_, 1};
  }
  void send(NodeId to, const Message& m) override {
    ASSERT_EQ(to, peer_);
    sent.push_back(m);
  }
  void broadcast(const Message& m) override { send(peer_, m); }

  std::vector<Message> sent;

 private:
  NodeId peer_;
};

/// Inner protocol, sender side: queues `total` numbered messages up front;
/// the transport windows them out.
class StreamSender final : public Protocol {
 public:
  explicit StreamSender(int total) : total_(total) {}
  void init(Context& ctx) override {
    for (int i = 0; i < total_; ++i) {
      ctx.send(1, Message(1, {std::int64_t{i}}));
    }
  }
  bool quiescent() const override { return true; }

 private:
  int total_;
};

/// Inner protocol, consumer side: records the delivered sequence.
class StreamConsumer final : public Protocol {
 public:
  void receive_phase(Context& ctx) override {
    for (const Envelope& e : ctx.inbox()) received.push_back(e.msg.f[0]);
  }
  std::vector<std::int64_t> received;
};

TEST(Reliable, ExactlyOnceInOrderStreamAtFifteenPercentLoss) {
  constexpr int kMessages = 120;
  constexpr double kLoss = 0.15;

  graph::GraphBuilder gb(2, /*directed=*/false);
  gb.add_edge(0, 1, 1);
  const Graph g = std::move(gb).build();

  auto consumer_owned = std::make_unique<StreamConsumer>();
  StreamConsumer* consumer = consumer_owned.get();
  ReliableTransport node0(g, 0, std::make_unique<StreamSender>(kMessages));
  ReliableTransport node1(g, 1, std::move(consumer_owned));

  std::mt19937_64 rng(2026);
  std::bernoulli_distribution drop(kLoss);
  std::uint64_t shipped = 0, dropped = 0, data_frames_lost = 0;

  // Carries one node's round output across the link, dropping each message
  // with probability kLoss, and returns the survivors as the peer's inbox.
  const auto transmit = [&](NodeId from, const std::vector<Message>& msgs) {
    std::vector<Envelope> inbox;
    for (const Message& m : msgs) {
      ++shipped;
      if (drop(rng)) {
        ++dropped;  // the lossy link ate this one
        if (m.tag == ReliableTransport::kTagData) ++data_frames_lost;
        continue;
      }
      inbox.push_back({from, m});
    }
    return inbox;
  };

  // Round 0: init (the sender enqueues its stream), then lockstep rounds of
  // send -> lossy link -> receive until both transports go quiescent.
  Round round = 0;
  {
    LinkContext c0(0, round, 1, {}, true);
    LinkContext c1(1, round, 0, {}, true);
    node0.init(c0);
    node1.init(c1);
    const auto in1 = transmit(0, c0.sent);
    const auto in0 = transmit(1, c1.sent);
    LinkContext r0(0, round, 1, in0, false);
    LinkContext r1(1, round, 0, in1, false);
    node0.receive_phase(r0);
    node1.receive_phase(r1);
  }
  const Round kMaxRounds = 20000;
  while (!(node0.quiescent() && node1.quiescent())) {
    ++round;
    ASSERT_LT(round, kMaxRounds) << "transport failed to converge; delivered "
                                 << consumer->received.size() << "/"
                                 << kMessages;
    LinkContext c0(0, round, 1, {}, true);
    LinkContext c1(1, round, 0, {}, true);
    node0.send_phase(c0);
    node1.send_phase(c1);
    const auto in1 = transmit(0, c0.sent);
    const auto in0 = transmit(1, c1.sent);
    LinkContext r0(0, round, 1, in0, false);
    LinkContext r1(1, round, 0, in1, false);
    node0.receive_phase(r0);
    node1.receive_phase(r1);
  }

  // Exactness: every message, exactly once, in order.
  ASSERT_EQ(consumer->received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(consumer->received[static_cast<std::size_t>(i)], i);
  }
  // The loss was real (>= 10% of the traffic died) and the transport
  // actually had to work for the result.
  ASSERT_GT(shipped, 0u);
  EXPECT_GE(static_cast<double>(dropped) / static_cast<double>(shipped), 0.10);
  EXPECT_GT(node0.transport_stats().retransmits, 0u);
  // Conservation: sender-side data transmissions = deliveries + losses +
  // duplicate arrivals the receiver suppressed.
  EXPECT_EQ(node0.transport_stats().data_frames,
            static_cast<std::uint64_t>(kMessages) +
                node1.transport_stats().duplicates_dropped +
                data_frames_lost);
}

// ---------------------------------------------------------------------------
// Service-layer safety net: a crashed cut vertex must fail the oracle build
// loudly, never silently serve kInfDist for a connected pair.
// ---------------------------------------------------------------------------

TEST(FaultPartition, CrashedCutVertexFailsTheBuild) {
  const Graph g = graph::path(7, {1, 3, 0.0}, 901, false);
  const FaultPlan plan = FaultPlan::parse("crash=3@0,seed=31");
  service::OracleBuildOptions opts;
  opts.solver = service::Solver::kPipelined;
  opts.env.faults = &plan;
  try {
    service::build_oracle(g, opts);
    FAIL() << "partitioned build did not throw";
  } catch (const std::runtime_error& err) {
    // The error must name the plan so the failure is replayable.
    EXPECT_NE(std::string(err.what()).find("crash=3@0"), std::string::npos)
        << err.what();
  }
}

TEST(FaultPartition, ReferenceSolverIgnoresThePlan) {
  const Graph g = graph::path(7, {1, 3, 0.0}, 902, false);
  const FaultPlan plan = FaultPlan::parse("crash=3@0,seed=32");
  service::OracleBuildOptions opts;
  opts.solver = service::Solver::kReference;
  opts.env.faults = &plan;
  const service::DistanceOracle o = service::build_oracle(g, opts);
  EXPECT_EQ(o.dist(0, 6), seq::dijkstra(g, 0).dist[6]);
}

TEST(FaultPartition, HarmlessPlanBuildsExactOracle) {
  // A crash scheduled long after quiescence never fires; the build must
  // both succeed and be exact.
  const Graph g = graph::erdos_renyi(10, 0.4, {1, 4, 0.0}, 903);
  const FaultPlan plan = FaultPlan::parse("crash=3@100000,seed=33");
  service::OracleBuildOptions opts;
  opts.solver = service::Solver::kPipelined;
  opts.env.faults = &plan;
  const service::DistanceOracle o = service::build_oracle(g, opts);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(o.dist(s, v), dj.dist[v]) << s << "->" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Observability integration: fault counters must reach the JSONL run record
// and stay valid JSON.
// ---------------------------------------------------------------------------

TEST(FaultTrace, RunRecordCarriesValidFaultCounters) {
  const Graph g = graph::erdos_renyi(12, 0.35, {0, 5, 0.2}, 1001);
  const FaultPlan plan = FaultPlan::parse("drop=0.3,dup=0.2,seed=41");
  obs::TraceRecorder rec;
  EngineOptions opt;
  opt.env.faults = &plan;
  opt.env.recorder = &rec;
  Engine e(g, make_bf(g, 0), opt);
  const RunStats stats = e.run();
  ASSERT_TRUE(stats.faults.any());

  std::ostringstream os;
  rec.write_run_record(os);
  const std::string record = os.str();
  EXPECT_TRUE(obs::jsonl_invalid_lines(record).empty()) << record;
  EXPECT_NE(record.find("\"faults\":{\"dropped\":"), std::string::npos);

  std::ostringstream chrome;
  rec.write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("faults_dropped"), std::string::npos);
}

TEST(FaultTrace, SummaryMentionsFaultsOnlyWhenPresent) {
  const Graph g = graph::path(6, {1, 2, 0.0}, 1002, false);
  Engine clean(g, make_bf(g, 0));
  EXPECT_EQ(clean.run().summary().find("faults{"), std::string::npos);

  const FaultPlan plan = FaultPlan::parse("drop=0.5,seed=42");
  EngineOptions opt;
  opt.env.faults = &plan;
  Engine faulted(g, make_bf(g, 0), opt);
  const std::string summary = faulted.run().summary();
  EXPECT_NE(summary.find("faults{dropped="), std::string::npos) << summary;
}

}  // namespace
}  // namespace dapsp::congest
