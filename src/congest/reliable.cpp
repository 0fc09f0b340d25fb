#include "congest/reliable.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/int_math.hpp"

namespace dapsp::congest {

using graph::Graph;
using graph::NodeId;

/// Buffers the inner protocol's sends into the per-link pending queues.
class ReliableTransport::RelSendContext final : public Context {
 public:
  RelSendContext(ReliableTransport& rt, Context& outer)
      : Context(outer.self(), outer.round(), {}, /*may_send=*/true),
        rt_(rt), outer_(outer) {}

  NodeId node_count() const noexcept override { return outer_.node_count(); }
  std::span<const NodeId> neighbors() const noexcept override {
    return outer_.neighbors();
  }

  void send(NodeId to, const Message& m) override {
    const auto nbrs = neighbors();
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    util::check(it != nbrs.end() && *it == to,
                "RelSendContext::send: target is not a neighbor");
    rt_.enqueue_inner(static_cast<std::size_t>(it - nbrs.begin()), m);
  }

  void broadcast(const Message& m) override {
    for (std::size_t j = 0; j < neighbors().size(); ++j) {
      rt_.enqueue_inner(j, m);
    }
  }

 private:
  ReliableTransport& rt_;
  Context& outer_;
};

/// Read-only view handing the inner protocol its in-order inbox.
class ReliableTransport::RelRecvContext final : public Context {
 public:
  RelRecvContext(Context& outer, std::span<const Envelope> inbox)
      : Context(outer.self(), outer.round(), inbox, /*may_send=*/false),
        outer_(outer) {}

  NodeId node_count() const noexcept override { return outer_.node_count(); }
  std::span<const NodeId> neighbors() const noexcept override {
    return outer_.neighbors();
  }
  void send(NodeId, const Message&) override {
    throw std::logic_error("reliable: inner protocol sent in receive_phase");
  }
  void broadcast(const Message&) override {
    throw std::logic_error("reliable: inner protocol sent in receive_phase");
  }

 private:
  Context& outer_;
};

ReliableTransport::ReliableTransport(const Graph& g, NodeId self,
                                     std::unique_ptr<Protocol> inner,
                                     ReliableOptions opt)
    : g_(g), self_(self), inner_(std::move(inner)), opt_(opt) {
  util::check(opt_.window > 0, "ReliableOptions: window must be >= 1");
  util::check(opt_.backoff_base > 0,
              "ReliableOptions: backoff_base must be >= 1");
  util::check(opt_.backoff_cap >= opt_.backoff_base,
              "ReliableOptions: backoff_cap < backoff_base");
  out_.resize(g.comm_degree(self));
  in_.resize(g.comm_degree(self));
}

std::size_t ReliableTransport::link_index(NodeId from) const {
  const auto nbrs = g_.comm_neighbors(self_);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), from);
  util::check(it != nbrs.end() && *it == from,
              "ReliableTransport: message from a non-neighbor");
  return static_cast<std::size_t>(it - nbrs.begin());
}

void ReliableTransport::enqueue_inner(std::size_t link, const Message& inner) {
  util::check(inner.used + 3 <= Message::kMaxFields,
              "reliable: inner message too large to wrap");
  out_[link].pending.push_back(inner);
}

void ReliableTransport::pump_link_sends(Context& ctx, Round now) {
  const auto nbrs = ctx.neighbors();
  for (std::size_t j = 0; j < out_.size(); ++j) {
    SendLink& sl = out_[j];
    // Promote queued inner messages into the send window.
    while (!sl.pending.empty() && sl.frames.size() < opt_.window) {
      const Message& inner = sl.pending.front();
      Frame fr;
      fr.seq = sl.next_seq++;
      fr.payload = Message(kTagData, {static_cast<std::int64_t>(fr.seq),
                                      std::int64_t{0},
                                      static_cast<std::int64_t>(inner.tag)});
      for (std::uint32_t i = 0; i < inner.used; ++i) {
        fr.payload.f[fr.payload.used++] = inner.f[i];
      }
      fr.next_resend = now;
      fr.backoff = opt_.backoff_base;
      sl.frames.push_back(fr);
      sl.pending.pop_front();
    }
    const std::uint64_t outstanding = sl.frames.size() + sl.pending.size();
    if (outstanding > stats_.max_outstanding) {
      stats_.max_outstanding = outstanding;
    }
    // One transport message per link per round: the lowest-seq due data
    // frame (its f1 piggybacks the cumulative ack), else a pure ack if one
    // is owed.
    Frame* due = nullptr;
    for (Frame& fr : sl.frames) {
      if (fr.next_resend <= now) {
        due = &fr;
        break;
      }
    }
    if (due != nullptr) {
      due->payload.f[1] = static_cast<std::int64_t>(in_[j].cum);
      ctx.send(nbrs[j], due->payload);
      ++stats_.data_frames;
      if (due->sent_once) ++stats_.retransmits;
      due->sent_once = true;
      due->next_resend = now + due->backoff;
      due->backoff = std::min(due->backoff * 2, opt_.backoff_cap);
      in_[j].ack_owed = false;
    } else if (in_[j].ack_owed) {
      ctx.send(nbrs[j],
               Message(kTagAck, {static_cast<std::int64_t>(in_[j].cum)}));
      ++stats_.pure_acks;
      in_[j].ack_owed = false;
    }
  }
}

void ReliableTransport::init(Context& ctx) {
  RelSendContext sub(*this, ctx);
  inner_->init(sub);
  pump_link_sends(ctx, ctx.round());
}

void ReliableTransport::send_phase(Context& ctx) {
  RelSendContext sub(*this, ctx);
  inner_->send_phase(sub);
  pump_link_sends(ctx, ctx.round());
}

void ReliableTransport::receive_phase(Context& ctx) {
  delivery_.clear();
  for (const Envelope& env : ctx.inbox()) {
    const std::size_t j = link_index(env.from);
    const auto ack = [&](std::int64_t upto) {
      SendLink& sl = out_[j];
      while (!sl.frames.empty() &&
             sl.frames.front().seq <= static_cast<std::uint64_t>(upto)) {
        sl.frames.pop_front();
      }
    };
    if (env.msg.tag == kTagAck) {
      ack(env.msg.f[0]);
      continue;
    }
    if (env.msg.tag != kTagData) continue;
    ack(env.msg.f[1]);  // piggybacked cumulative ack
    RecvLink& rl = in_[j];
    rl.ack_owed = true;  // every data frame deserves an ack, duplicate or not
    const auto seq = static_cast<std::uint64_t>(env.msg.f[0]);
    if (seq <= rl.cum || rl.buffered.contains(seq)) {
      ++stats_.duplicates_dropped;
      continue;
    }
    Message inner;
    inner.tag = static_cast<std::uint32_t>(env.msg.f[2]);
    for (std::uint32_t i = 3; i < env.msg.used; ++i) {
      inner.f[inner.used++] = env.msg.f[i];
    }
    rl.buffered.emplace(seq, inner);
    // Deliver the contiguous prefix in order.
    for (auto it = rl.buffered.find(rl.cum + 1); it != rl.buffered.end();
         it = rl.buffered.find(rl.cum + 1)) {
      delivery_.push_back({env.from, it->second});
      ++rl.cum;
      rl.buffered.erase(it);
    }
  }
  if (!delivery_.empty()) {
    RelRecvContext sub(ctx, delivery_);
    inner_->receive_phase(sub);
  }
}

bool ReliableTransport::quiescent() const {
  for (std::size_t j = 0; j < out_.size(); ++j) {
    if (!out_[j].pending.empty() || !out_[j].frames.empty()) return false;
    if (in_[j].ack_owed) return false;
  }
  return inner_->quiescent();
}

Round ReliableTransport::next_send_round(Round now) const {
  Round wake = inner_->next_send_round(now);
  for (std::size_t j = 0; j < out_.size(); ++j) {
    if (in_[j].ack_owed || !out_[j].pending.empty()) return now + 1;
    for (const Frame& fr : out_[j].frames) {
      const Round t = fr.next_resend > now + 1 ? fr.next_resend : now + 1;
      if (t < wake) wake = t;
    }
  }
  return wake;
}

ReliableResult run_reliable(
    const Graph& g, const ReliableFactory& make, EngineOptions options,
    ReliableOptions transport_options,
    const std::function<void(NodeId, ReliableTransport&)>& accessor) {
  const auto run = run_nodes(g, options, [&](NodeId v) {
    return std::make_unique<ReliableTransport>(g, v, make(v),
                                               transport_options);
  });
  ReliableResult res;
  res.stats = run.stats;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ReliableTransport& rt = run.node(v);
    res.transport += rt.transport_stats();
    if (accessor) accessor(v, rt);
  }
  return res;
}

}  // namespace dapsp::congest
