#include "core/scaled_apsp.hpp"

#include <algorithm>
#include <optional>

#include "congest/multiplex.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Protocol;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;

namespace {

constexpr std::uint32_t kTagPair = 21;  // {d, l}

/// Single-source Algorithm 2, self-contained so it can be instantiated once
/// per source behind the multiplexer.  (The standalone driver in
/// short_range.cpp keeps its own multi-source variant; this instance is the
/// paper's literal two-field protocol.)
class ShortRangeInstance final : public Protocol {
 public:
  ShortRangeInstance(const Graph& g, NodeId self, NodeId source,
                     std::uint32_t h, const KappaKernel& kernel)
      : self_(self), source_(source), h_(h), kernel_(&kernel) {
    for (const auto& e : g.in_edges(self)) {
      in_weight_.emplace_back(e.from, e.weight);
    }
    in_weight_.erase(
        std::unique(in_weight_.begin(), in_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        in_weight_.end());
  }

  void init(Context& ctx) override {
    if (self_ == source_) {
      d_ = 0;
      l_ = 0;
      dirty_ = true;
      emit_due(ctx, 0);
    }
  }

  void send_phase(Context& ctx) override { emit_due(ctx, ctx.round()); }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagPair) continue;
      const auto it = std::lower_bound(
          in_weight_.begin(), in_weight_.end(), env.from,
          [](const auto& p, NodeId v) { return p.first < v; });
      if (it == in_weight_.end() || it->first != env.from) continue;
      const Weight d = env.msg.f[0] + it->second;
      const auto l = static_cast<std::uint32_t>(env.msg.f[1]) + 1;
      if (l > h_) continue;
      if (d < d_ || (d == d_ && l < l_)) {
        d_ = d;
        l_ = l;
        dirty_ = true;
      }
    }
  }

  bool quiescent() const override { return !dirty_; }

  Weight dist() const { return d_; }
  std::uint32_t hops() const { return l_; }

 private:
  void emit_due(Context& ctx, congest::Round r) {
    if (!dirty_) return;
    const Key key{d_, l_};
    if (kernel_->ceil_kappa(key) > r) return;  // scheduled later
    dirty_ = false;
    ctx.broadcast(Message(kTagPair, {d_, static_cast<std::int64_t>(l_)}));
  }

  NodeId self_;
  NodeId source_;
  std::uint32_t h_;
  const KappaKernel* kernel_;  // shared across all n^2 instances (same gamma)
  std::vector<std::pair<NodeId, Weight>> in_weight_;
  Weight d_ = kInfDist;
  std::uint32_t l_ = 0;
  bool dirty_ = false;
};

}  // namespace

ScaledApspResult scaled_hhop_apsp(const Graph& g, ScaledApspParams params) {
  util::check(params.h >= 1, "scaled_hhop_apsp: need h >= 1");
  if (params.gamma.num == 0 && params.gamma.den == 0) {
    params.gamma = GammaSq{params.h, 1};  // Algorithm 2's sqrt(h)
  }
  const NodeId n = g.node_count();

  const std::uint64_t dilation =
      util::ceil_mul_sqrt(static_cast<std::uint64_t>(params.delta),
                          params.gamma.num, params.gamma.den) +
      params.h + 2;
  const std::uint64_t per_instance_congestion =
      params.gamma.num == 0
          ? params.h + 1
          : util::ceil_mul_sqrt(params.h, params.gamma.den, params.gamma.num) +
                1;
  ScaledApspResult res;
  res.theoretical_bound = dilation + n * per_instance_congestion + 4;
  res.dist.assign(n, std::vector<Weight>(n, kInfDist));
  res.hops.assign(n, std::vector<std::uint32_t>(n, 0));

  // Engine budget: FIFO queueing delays cascade (a late-fired message can
  // delay downstream schedules again), so the clean dilation+n*congestion
  // form is a comparison value, not a hard cap; give the run 2x slack.
  const congest::Round budget = 2 * res.theoretical_bound + 8;
  const KappaKernel kernel(params.gamma);  // outlives every instance
  const congest::MultiplexResult mux = congest::run_multiplexed(
      g, n,
      [&](std::size_t instance, NodeId node) -> std::unique_ptr<Protocol> {
        return std::make_unique<ShortRangeInstance>(
            g, node, static_cast<NodeId>(instance), params.h, kernel);
      },
      budget,
      [&](NodeId v, congest::MultiplexProtocol& node) {
        for (NodeId s = 0; s < n; ++s) {
          const auto& inst =
              static_cast<const ShortRangeInstance&>(node.instance(s));
          res.dist[s][v] = inst.dist();
          res.hops[s][v] = inst.hops();
        }
      },
      params.env);
  res.stats = mux.stats;
  res.max_queue_depth = mux.max_queue_depth;
  return res;
}

}  // namespace dapsp::core
