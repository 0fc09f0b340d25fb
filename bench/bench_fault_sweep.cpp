// E11 -- rounds vs loss rate for reliable Bellman-Ford over a faulty plane.
//
// The paper's round bounds assume a flawless synchronous network.  This
// sweep measures what reliability costs when the network is not flawless:
// the same SSSP is run over drop rates {0, 0.05, 0.1, 0.2, 0.3} behind the
// ack/retransmit transport (congest/reliable.hpp), on a grid and on an
// Erdos-Renyi graph.  Columns: measured rounds (the reliability tax --
// expected to grow roughly like 1/(1-p) from retransmission round trips),
// transport frames/retransmits, and a correctness check against sequential
// Dijkstra -- every row must end "ok", or the transport is broken, not slow,
// and the sweep exits 1.  A second table sweeps seeds at fixed 10% loss to
// show the spread.
#include <iostream>
#include <memory>
#include <vector>

#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "congest/reliable.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "seq/dijkstra.hpp"

namespace {

using namespace dapsp;
using graph::Graph;
using graph::NodeId;
using graph::Weight;

constexpr std::uint32_t kTag = 880;

/// Monotone Bellman-Ford SSSP (rebroadcast on improvement) -- safe under
/// the transport's stretched delivery timing.
class BfNode final : public congest::Protocol {
 public:
  BfNode(const Graph& g, NodeId self, NodeId source)
      : g_(g), self_(self), source_(source) {}

  void init(congest::Context& ctx) override {
    if (self_ == source_) {
      dist_ = 0;
      ctx.broadcast(congest::Message(kTag, {0}));
    }
  }
  void send_phase(congest::Context& ctx) override {
    if (improved_) {
      ctx.broadcast(congest::Message(kTag, {dist_}));
      improved_ = false;
    }
  }
  void receive_phase(congest::Context& ctx) override {
    for (const congest::Envelope& env : ctx.inbox()) {
      Weight w = graph::kInfDist;
      for (const auto& e : g_.out_edges(self_)) {
        if (e.to == env.from && e.weight < w) w = e.weight;
      }
      const Weight cand = env.msg.f[0] + w;
      if (dist_ == graph::kInfDist || cand < dist_) {
        dist_ = cand;
        improved_ = true;
      }
    }
  }
  bool quiescent() const override { return !improved_; }
  Weight dist() const { return dist_; }

 private:
  const Graph& g_;
  NodeId self_;
  NodeId source_;
  Weight dist_ = graph::kInfDist;
  bool improved_ = false;
};

struct SweepRow {
  congest::ReliableResult res;
  bool exact = false;
};

SweepRow run_one(const Graph& g, double drop, std::uint64_t seed) {
  congest::FaultPlan plan;
  plan.drop_prob = drop;
  plan.seed = seed;
  congest::EngineOptions opt;
  if (plan.enabled()) opt.env.faults = &plan;
  opt.max_rounds = 200000;
  std::vector<Weight> dists(g.node_count(), graph::kInfDist);
  SweepRow row;
  row.res = congest::run_reliable(
      g, [&](NodeId v) { return std::make_unique<BfNode>(g, v, 0); }, opt, {},
      [&](NodeId v, congest::ReliableTransport& t) {
        dists[v] = static_cast<const BfNode&>(t.inner()).dist();
      });
  row.exact = dists == seq::dijkstra(g, 0).dist;
  return row;
}

/// Prints one graph's drop-rate table; returns how many rows were WRONG.
int sweep_graph(const char* label, const Graph& g) {
  using bench::fmt;
  int wrong = 0;
  bench::Table table({"graph", "drop", "rounds", "messages", "data frames",
                      "retransmits", "pure acks", "dup drops", "exact"});
  const SweepRow base = run_one(g, 0.0, 1);
  for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    const SweepRow row = run_one(g, drop, 1);
    table.row({label, fmt(drop, 2),
               fmt(std::uint64_t{row.res.stats.rounds}) + " (x" +
                   fmt(static_cast<double>(row.res.stats.rounds) /
                           static_cast<double>(base.res.stats.rounds),
                       2) +
                   ")",
               fmt(row.res.stats.total_messages),
               fmt(row.res.transport.data_frames),
               fmt(row.res.transport.retransmits),
               fmt(row.res.transport.pure_acks),
               fmt(row.res.transport.duplicates_dropped),
               row.exact ? "ok" : "WRONG"});
    wrong += row.exact ? 0 : 1;
  }
  table.print();
  return wrong;
}

}  // namespace

int main() {
  using bench::fmt;
  bench::banner("E11: rounds vs loss rate (reliable transport)",
                "Reliable Bellman-Ford SSSP over seeded drop planes; the "
                "rounds column is the price of reliability, the exact "
                "column the proof it was bought.");

  int wrong = sweep_graph("grid 6x8", graph::grid(6, 8, {1, 6, 0.0}, 7001));
  wrong += sweep_graph("er n=48 p=0.12",
                       graph::erdos_renyi(48, 0.12, {1, 8, 0.0}, 7002));

  std::cout << "\nSeed spread at drop=0.1 (grid 6x8):\n";
  bench::Table spread({"seed", "rounds", "retransmits", "exact"});
  const Graph g = graph::grid(6, 8, {1, 6, 0.0}, 7001);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SweepRow row = run_one(g, 0.1, seed);
    spread.row({fmt(seed), fmt(std::uint64_t{row.res.stats.rounds}),
                fmt(row.res.transport.retransmits),
                row.exact ? "ok" : "WRONG"});
    wrong += row.exact ? 0 : 1;
  }
  spread.print();
  if (wrong > 0) {
    std::cerr << "E11: " << wrong << " row(s) not exact\n";
    return 1;
  }
  return 0;
}
