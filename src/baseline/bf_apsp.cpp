#include "baseline/bf_apsp.hpp"

#include <algorithm>
#include <optional>

#include "congest/engine.hpp"

namespace dapsp::baseline {

using congest::Context;
using congest::EngineOptions;
using congest::Envelope;
using congest::Message;
using congest::Protocol;
using congest::Round;
using congest::run_nodes;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

namespace {

constexpr std::uint32_t kTagDist = 50;  // {d, l}

class BellmanFordProtocol final : public Protocol {
 public:
  BellmanFordProtocol(const Graph& g, NodeId self, NodeId source, bool reverse)
      : self_(self) {
    // In reverse mode a neighbor y's label extends along the arc self -> y,
    // so the relevant weight is w(self, y); forward mode uses w(y, self).
    const auto edges = reverse ? g.out_edges(self) : g.in_edges(self);
    for (const auto& e : edges) {
      const NodeId nbr = reverse ? e.to : e.from;
      nbr_weight_.emplace_back(nbr, e.weight);
    }
    std::sort(nbr_weight_.begin(), nbr_weight_.end());
    nbr_weight_.erase(
        std::unique(nbr_weight_.begin(), nbr_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        nbr_weight_.end());
    if (self == source) {
      d_ = 0;
      l_ = 0;
      dirty_ = true;
    }
  }

  void init(Context& ctx) override {
    if (dirty_) {
      dirty_ = false;
      ctx.broadcast(Message(kTagDist, {d_, l_}));
    }
  }

  void send_phase(Context& ctx) override {
    if (dirty_) {
      dirty_ = false;
      ctx.broadcast(Message(kTagDist, {d_, l_}));
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagDist) continue;
      const auto it = std::lower_bound(
          nbr_weight_.begin(), nbr_weight_.end(), env.from,
          [](const auto& p, NodeId v) { return p.first < v; });
      if (it == nbr_weight_.end() || it->first != env.from) continue;
      const Weight nd = env.msg.f[0] + it->second;
      const auto nl = env.msg.f[1] + 1;
      if (nd < d_ || (nd == d_ && nl < l_)) {
        d_ = nd;
        l_ = nl;
        p_ = env.from;
        dirty_ = true;
        settle_round_ = ctx.round();
      }
    }
  }

  bool quiescent() const override { return !dirty_; }

  Round next_send_round(Round now) const override {
    return dirty_ ? now + 1 : kNeverSends;
  }

  Weight dist() const { return d_; }
  std::int64_t hops() const { return l_; }
  NodeId parent() const { return p_; }
  Round settle_round() const { return settle_round_; }

 private:
  NodeId self_;
  std::vector<std::pair<NodeId, Weight>> nbr_weight_;
  Weight d_ = kInfDist;
  std::int64_t l_ = 0;
  NodeId p_ = kNoNode;
  bool dirty_ = false;
  Round settle_round_ = 0;
};

}  // namespace

BfSsspResult bf_sssp(const Graph& g, NodeId source, bool reverse,
                     congest::Round max_rounds, const congest::RunEnv& env) {
  const NodeId n = g.node_count();
  const EngineOptions opt{
      .max_rounds = max_rounds == 0 ? static_cast<Round>(n) + 2 : max_rounds,
      .env = env};
  const auto run = run_nodes(g, opt, [&](NodeId v) {
    return std::make_unique<BellmanFordProtocol>(g, v, source, reverse);
  });

  BfSsspResult res;
  res.stats = run.stats;
  res.dist.resize(n);
  res.hops.resize(n);
  res.parent.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const BellmanFordProtocol& p = run.node(v);
    res.dist[v] = p.dist();
    res.hops[v] = static_cast<std::uint32_t>(p.hops());
    res.parent[v] = p.parent();
    res.settle_round = std::max(res.settle_round, p.settle_round());
  }
  return res;
}

BfApspResult bf_apsp(const Graph& g, const congest::RunEnv& env) {
  BfApspResult res;
  res.dist.reserve(g.node_count());
  res.parent.reserve(g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    BfSsspResult one =
        bf_sssp(g, s, /*reverse=*/false, /*max_rounds=*/0, env);
    res.stats += one.stats;
    res.dist.push_back(std::move(one.dist));
    res.parent.push_back(std::move(one.parent));
  }
  return res;
}

}  // namespace dapsp::baseline
