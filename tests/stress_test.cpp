// Larger-scale runs: the theorem bounds and exactness must hold beyond the
// toy sizes the unit tests use.  Kept under ~2 seconds total.
#include <gtest/gtest.h>

#include <memory>

#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "congest/reliable.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/bounds.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"

namespace dapsp {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(Stress, PipelinedApspN96) {
  const Graph g = graph::erdos_renyi(96, 0.06, {0, 10, 0.25}, 4242);
  const graph::Weight delta = graph::max_finite_distance(g);
  const auto res = core::pipelined_apsp(g, delta);
  EXPECT_LE(res.settle_round,
            core::bounds::apsp_pipelined(96, static_cast<std::uint64_t>(delta)));
  EXPECT_EQ(res.stats.max_link_congestion, 1u);
  // Spot-check a stripe of sources against the oracle.
  for (NodeId s = 0; s < 96; s += 13) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < 96; ++v) {
      ASSERT_EQ(res.dist[s][v], dj.dist[v]) << s << "->" << v;
    }
  }
}

TEST(Stress, PipelinedApspN128ZeroHeavy) {
  const Graph g = graph::erdos_renyi(128, 0.045, {0, 4, 0.5}, 4343);
  const graph::Weight delta = graph::max_finite_distance(g);
  const auto res = core::pipelined_apsp(g, delta);
  EXPECT_LE(res.settle_round,
            core::bounds::apsp_pipelined(128, static_cast<std::uint64_t>(delta)));
  for (NodeId s = 0; s < 128; s += 17) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < 128; ++v) {
      ASSERT_EQ(res.dist[s][v], dj.dist[v]) << s << "->" << v;
    }
  }
}

TEST(Stress, BlockerApspN48) {
  const Graph g = graph::erdos_renyi(48, 0.08, {0, 6, 0.3}, 4444);
  core::BlockerApspParams p;  // auto h
  const auto res = core::blocker_apsp(g, p);
  EXPECT_LE(res.stats.rounds, res.theoretical_bound);
  for (NodeId s = 0; s < 48; s += 7) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < 48; ++v) {
      ASSERT_EQ(res.dist[s][v], dj.dist[v]) << s << "->" << v;
    }
  }
}

TEST(Stress, ApproxApspN40) {
  const Graph g = graph::erdos_renyi(40, 0.1, {0, 12, 0.4}, 4545);
  core::ApproxApspParams p;
  p.eps = 0.5;
  const auto res = core::approx_apsp(g, p);
  EXPECT_LE(res.stats.rounds, res.implementation_bound);
  for (NodeId s = 0; s < 40; s += 9) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < 40; ++v) {
      if (dj.dist[v] == graph::kInfDist) {
        EXPECT_EQ(res.dist[s][v], graph::kInfDist);
      } else if (dj.dist[v] == 0) {
        EXPECT_EQ(res.dist[s][v], 0);
      } else {
        EXPECT_GE(res.dist[s][v], dj.dist[v]);
        EXPECT_LE(static_cast<double>(res.dist[s][v]),
                  1.5 * static_cast<double>(dj.dist[v]));
      }
    }
  }
}

TEST(Stress, KsspLargeSourceSet) {
  const Graph g = graph::barabasi_albert(80, 3, {0, 7, 0.3}, 4646);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < 80; v += 2) sources.push_back(v);
  const graph::Weight delta = graph::max_finite_distance(g);
  const auto res = core::pipelined_kssp_full(g, sources, delta);
  EXPECT_LE(res.settle_round,
            core::bounds::k_ssp_pipelined(80, sources.size(),
                                          static_cast<std::uint64_t>(delta)));
  for (std::size_t i = 0; i < res.sources.size(); i += 8) {
    const auto dj = seq::dijkstra(g, res.sources[i]);
    for (NodeId v = 0; v < 80; ++v) {
      ASSERT_EQ(res.dist[i][v], dj.dist[v]);
    }
  }
}

// ---------------------------------------------------------------------------
// Termination-path stress: quiescence at scale, and truncated runs
// surfacing honestly when max_rounds lands mid-work.
// ---------------------------------------------------------------------------

/// Hop-count flood: node 0 starts, everyone rebroadcasts its first value+1.
class Relay final : public congest::Protocol {
 public:
  explicit Relay(NodeId self) : self_(self) {}
  void init(congest::Context& ctx) override {
    if (self_ == 0) ctx.broadcast(congest::Message(7, {0}));
  }
  void send_phase(congest::Context& ctx) override {
    if (pending_) {
      ctx.broadcast(congest::Message(7, {value_}));
      pending_ = false;
    }
  }
  void receive_phase(congest::Context& ctx) override {
    for (const congest::Envelope& env : ctx.inbox()) {
      if (value_ < 0) {
        value_ = env.msg.f[0] + 1;
        pending_ = true;
      }
    }
  }
  bool quiescent() const override { return !pending_; }
  std::int64_t value() const { return value_; }

 private:
  NodeId self_;
  std::int64_t value_ = -1;
  bool pending_ = false;
};

std::vector<std::unique_ptr<congest::Protocol>> make_relays(const Graph& g) {
  std::vector<std::unique_ptr<congest::Protocol>> procs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    procs.push_back(std::make_unique<Relay>(v));
  }
  return procs;
}

TEST(Stress, LargeNQuiescenceSkipsSilentRounds) {
  // A long path has huge silent stretches between pipelined sends; the
  // sparse scheduler must both fast-forward them and still detect
  // quiescence, with exact output.
  const Graph g = graph::path(160, {1, 9, 0.0}, 4747, false);
  const graph::Weight delta = graph::max_finite_distance(g);
  const auto res = core::pipelined_apsp(g, delta);
  EXPECT_FALSE(res.stats.hit_round_limit);
  EXPECT_GT(res.stats.skipped_rounds, 0u);
  for (NodeId s = 0; s < 160; s += 37) {
    const auto dj = seq::dijkstra(g, s);
    for (NodeId v = 0; v < 160; ++v) {
      ASSERT_EQ(res.dist[s][v], dj.dist[v]) << s << "->" << v;
    }
  }
}

TEST(Stress, RoundLimitMidFloodReportsTruncation) {
  // max_rounds lands while the wave is mid-graph: the run must report the
  // truncation, not masquerade as a finished run.
  const Graph g = graph::path(220, {1, 1, 0.0}, 4848, false);
  congest::EngineOptions opt;
  opt.max_rounds = 10;
  congest::Engine e(g, make_relays(g), opt);
  const congest::RunStats stats = e.run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 10u);
  EXPECT_NE(stats.summary().find("[HIT ROUND LIMIT]"), std::string::npos);
  // The wave reached ~round 10; far nodes must still be untouched.
  EXPECT_EQ(static_cast<const Relay&>(e.protocol(219)).value(), -1);
}

TEST(Stress, RoundLimitWithPendingFaultFramesReportsTruncation) {
  // Every message sits in the fault plane's reorder buffer for 50 rounds;
  // a 5-round cap therefore expires with frames still pending.  The engine
  // must keep ticking (not exit "quiescent" while the plane holds work) and
  // must flag the truncation.
  const Graph g = graph::path(12, {1, 1, 0.0}, 4949, false);
  const congest::FaultPlan plan = congest::FaultPlan::parse("delay=1.0:50,seed=9");
  congest::EngineOptions opt;
  opt.env.faults = &plan;
  opt.max_rounds = 5;
  congest::Engine e(g, make_relays(g), opt);
  const congest::RunStats stats = e.run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_GT(stats.faults.delayed, 0u);
  EXPECT_EQ(stats.faults.delivered, 0u);

  // Same plan with room to finish: the flood completes and nothing is
  // reported truncated -- the cap, not the faults, caused the first failure.
  congest::EngineOptions roomy;
  roomy.env.faults = &plan;
  roomy.max_rounds = 5000;
  congest::Engine e2(g, make_relays(g), roomy);
  const congest::RunStats ok = e2.run();
  EXPECT_FALSE(ok.hit_round_limit);
  EXPECT_EQ(static_cast<const Relay&>(e2.protocol(11)).value(), 11);
}

TEST(Stress, ReliableBellmanFordMidSizeGridUnderLoss) {
  // 48-node grid, 15% loss, full recovery: the transport's retransmission
  // machinery at a scale where thousands of frames are in flight.
  const Graph g = graph::grid(6, 8, {1, 6, 0.0}, 5050);
  const congest::FaultPlan plan = congest::FaultPlan::parse("drop=0.15,seed=10");
  congest::EngineOptions opt;
  opt.env.faults = &plan;
  opt.max_rounds = 50000;

  struct Bf final : congest::Protocol {
    Bf(const Graph& gr, NodeId s) : g(gr), self(s) {}
    void init(congest::Context& ctx) override {
      if (self == 0) {
        dist = 0;
        ctx.broadcast(congest::Message(8, {0}));
      }
    }
    void send_phase(congest::Context& ctx) override {
      if (improved) {
        ctx.broadcast(congest::Message(8, {dist}));
        improved = false;
      }
    }
    void receive_phase(congest::Context& ctx) override {
      for (const congest::Envelope& env : ctx.inbox()) {
        graph::Weight w = graph::kInfDist;
        for (const auto& edge : g.out_edges(self)) {
          if (edge.to == env.from && edge.weight < w) w = edge.weight;
        }
        const graph::Weight cand = env.msg.f[0] + w;
        if (dist == graph::kInfDist || cand < dist) {
          dist = cand;
          improved = true;
        }
      }
    }
    bool quiescent() const override { return !improved; }
    const Graph& g;
    NodeId self;
    graph::Weight dist = graph::kInfDist;
    bool improved = false;
  };

  std::vector<graph::Weight> dists(g.node_count(), graph::kInfDist);
  const congest::ReliableResult res = congest::run_reliable(
      g, [&](NodeId v) { return std::make_unique<Bf>(g, v); }, opt, {},
      [&](NodeId v, congest::ReliableTransport& t) {
        dists[v] = static_cast<const Bf&>(t.inner()).dist;
      });
  ASSERT_FALSE(res.stats.hit_round_limit);
  EXPECT_EQ(dists, seq::dijkstra(g, 0).dist);
  EXPECT_GT(res.transport.retransmits, 0u);
}

}  // namespace
}  // namespace dapsp
