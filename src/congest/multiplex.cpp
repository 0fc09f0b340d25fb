#include "congest/multiplex.hpp"

#include <algorithm>

#include "util/int_math.hpp"

namespace dapsp::congest {

using graph::Graph;
using graph::NodeId;

/// Buffers an instance's sends into the multiplexer's per-link queues.
class MultiplexProtocol::MuxSendContext final : public Context {
 public:
  MuxSendContext(MultiplexProtocol& mux, Context& outer, std::size_t instance)
      : Context(outer.self(), outer.round(), {}, /*may_send=*/true),
        mux_(mux), outer_(outer), instance_(instance) {}

  NodeId node_count() const noexcept override { return outer_.node_count(); }
  std::span<const NodeId> neighbors() const noexcept override {
    return outer_.neighbors();
  }

  void send(NodeId to, const Message& m) override {
    const auto nbrs = neighbors();
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    util::check(it != nbrs.end() && *it == to,
                "MuxSendContext::send: target is not a neighbor");
    enqueue(static_cast<std::size_t>(it - nbrs.begin()), m);
  }

  void broadcast(const Message& m) override {
    for (std::size_t j = 0; j < neighbors().size(); ++j) enqueue(j, m);
  }

 private:
  void enqueue(std::size_t link, const Message& inner) {
    util::check(inner.used + 2 <= Message::kMaxFields,
                "multiplex: inner message too large to wrap");
    Message wrapped(kTagMux, {static_cast<std::int64_t>(instance_),
                              static_cast<std::int64_t>(inner.tag)});
    for (std::uint32_t i = 0; i < inner.used; ++i) {
      wrapped.f[wrapped.used++] = inner.f[i];
    }
    mux_.queue_[link].push_back(wrapped);
    mux_.max_queue_ = std::max(mux_.max_queue_, mux_.queue_[link].size());
  }

  MultiplexProtocol& mux_;
  Context& outer_;
  std::size_t instance_;
};

/// Read-only view handing an instance its demultiplexed inbox.
class MultiplexProtocol::MuxRecvContext final : public Context {
 public:
  MuxRecvContext(Context& outer, std::span<const Envelope> inbox)
      : Context(outer.self(), outer.round(), inbox, /*may_send=*/false),
        outer_(outer) {}

  NodeId node_count() const noexcept override { return outer_.node_count(); }
  std::span<const NodeId> neighbors() const noexcept override {
    return outer_.neighbors();
  }
  void send(NodeId, const Message&) override {
    throw std::logic_error("multiplex: instance sent in receive_phase");
  }
  void broadcast(const Message&) override {
    throw std::logic_error("multiplex: instance sent in receive_phase");
  }

 private:
  Context& outer_;
};

MultiplexProtocol::MultiplexProtocol(
    const Graph& g, NodeId self,
    std::vector<std::unique_ptr<Protocol>> instances)
    : g_(g), self_(self), instances_(std::move(instances)) {
  queue_.resize(g.comm_degree(self));
  per_instance_inbox_.resize(instances_.size());
}

void MultiplexProtocol::init(Context& ctx) {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    MuxSendContext sub(*this, ctx, i);
    instances_[i]->init(sub);
  }
  drain_queues(ctx);
}

void MultiplexProtocol::send_phase(Context& ctx) {
  pump_instances_send(ctx);
  drain_queues(ctx);
}

void MultiplexProtocol::pump_instances_send(Context& ctx) {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    MuxSendContext sub(*this, ctx, i);
    instances_[i]->send_phase(sub);
  }
}

void MultiplexProtocol::drain_queues(Context& ctx) {
  const auto nbrs = ctx.neighbors();
  for (std::size_t j = 0; j < queue_.size(); ++j) {
    if (queue_[j].empty()) continue;
    ctx.send(nbrs[j], queue_[j].front());
    queue_[j].pop_front();
  }
}

void MultiplexProtocol::receive_phase(Context& ctx) {
  for (auto& box : per_instance_inbox_) box.clear();
  for (const Envelope& env : ctx.inbox()) {
    if (env.msg.tag != kTagMux) continue;
    const auto instance = static_cast<std::size_t>(env.msg.f[0]);
    if (instance >= instances_.size()) continue;
    Message inner;
    inner.tag = static_cast<std::uint32_t>(env.msg.f[1]);
    for (std::uint32_t i = 2; i < env.msg.used; ++i) {
      inner.f[inner.used++] = env.msg.f[i];
    }
    per_instance_inbox_[instance].push_back({env.from, inner});
  }
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    MuxRecvContext sub(ctx, per_instance_inbox_[i]);
    instances_[i]->receive_phase(sub);
  }
}

Round MultiplexProtocol::next_send_round(Round now) const {
  // Backlogged queues drain one message per link every round.
  for (const auto& q : queue_) {
    if (!q.empty()) return now + 1;
  }
  Round wake = kNeverSends;
  for (const auto& p : instances_) {
    wake = std::min(wake, p->next_send_round(now));
  }
  return wake;
}

bool MultiplexProtocol::quiescent() const {
  for (const auto& q : queue_) {
    if (!q.empty()) return false;
  }
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const auto& p) { return p->quiescent(); });
}

MultiplexResult run_multiplexed(
    const Graph& g, std::size_t instances, const InstanceFactory& make,
    Round max_rounds,
    const std::function<void(NodeId, MultiplexProtocol&)>& accessor,
    const RunEnv& env) {
  const EngineOptions opt{.max_rounds = max_rounds, .env = env};
  const auto run = run_nodes(g, opt, [&](NodeId v) {
    std::vector<std::unique_ptr<Protocol>> inner;
    inner.reserve(instances);
    for (std::size_t i = 0; i < instances; ++i) inner.push_back(make(i, v));
    return std::make_unique<MultiplexProtocol>(g, v, std::move(inner));
  });

  MultiplexResult res;
  res.stats = run.stats;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    MultiplexProtocol& mux = run.node(v);
    res.max_queue_depth = std::max(res.max_queue_depth, mux.max_queue_depth());
    if (accessor) accessor(v, mux);
  }
  return res;
}

}  // namespace dapsp::congest
