#include "core/cssp.hpp"

#include <algorithm>
#include <optional>

#include "congest/engine.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

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

constexpr std::uint32_t kTagLabel = 30;    // {tree, d, l}
constexpr std::uint32_t kTagConfirm = 31;  // {tree}
constexpr std::uint32_t kTagChild = 32;    // {tree}

/// Post-processing of the 2h-hop run into verified h-hop trees.
///
/// Why verification is needed: a node's recorded (d, l, parent) triple
/// describes the path that delivered its best label, but the parent may have
/// improved afterwards to a cheaper path with more hops.  Such a parent's
/// final label no longer extends to this node's label, and the parent may
/// even fall outside the truncated tree, leaving a dangling pointer.  Nodes
/// whose true shortest path fits in h hops always have final-consistent
/// parent chains (a cheaper parent label would contradict exactness), so
/// verification never drops required members (Definition III.3).
///
/// Protocol, one engine:
///   rounds 1..k:          node broadcasts its final (d, l) label for tree
///                         r-1 (if finite); receivers remember their
///                         parent's labels.
///   round k+1+i + depth:  tree i's confirmation wave: the source emits
///                         CONFIRM(i); a node whose local parent-label check
///                         passed forwards it one round after hearing it
///                         from its candidate parent.
class TreeVerifyProtocol final : public Protocol {
 public:
  struct NodeData {
    // Final 2h-run labels and parents, per tree.
    std::vector<Weight> dist;
    std::vector<std::uint32_t> hops;
    std::vector<NodeId> parent;
  };

  TreeVerifyProtocol(const Graph& g, const std::vector<NodeId>& sources,
                     std::uint32_t h, NodeId self, NodeData data)
      : g_(g), sources_(sources), h_(h), self_(self), data_(std::move(data)) {
    const std::size_t k = sources.size();
    parent_label_d_.assign(k, kInfDist);
    parent_label_l_.assign(k, 0);
    confirmed_.assign(k, false);
    forward_.clear();
    for (std::size_t i = 0; i < k; ++i) {
      if (sources[i] == self) confirmed_[i] = true;
    }
  }

  void send_phase(Context& ctx) override {
    const Round r = ctx.round();
    last_round_ = r;
    const std::size_t k = sources_.size();
    if (r >= 1 && r <= k) {
      const std::size_t i = static_cast<std::size_t>(r) - 1;
      if (data_.dist[i] != kInfDist) {
        ctx.broadcast(Message(kTagLabel,
                              {static_cast<std::int64_t>(i), data_.dist[i],
                               static_cast<std::int64_t>(data_.hops[i])}));
      }
      return;
    }
    // Confirmation wave: source i emits at round k+1+i; relays forward what
    // arrived last round.
    if (r >= k + 1) {
      const std::size_t i = static_cast<std::size_t>(r - k - 1);
      if (i < k && sources_[i] == self_) {
        ctx.broadcast(Message(kTagConfirm, {static_cast<std::int64_t>(i)}));
      }
    }
    for (const std::int64_t t : forward_) {
      ctx.broadcast(Message(kTagConfirm, {t}));
    }
    forward_.clear();
  }

  void receive_phase(Context& ctx) override {
    const std::size_t k = sources_.size();
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag == kTagLabel) {
        const auto i = static_cast<std::size_t>(env.msg.f[0]);
        if (data_.parent[i] == env.from) {
          parent_label_d_[i] = env.msg.f[1];
          parent_label_l_[i] = static_cast<std::uint32_t>(env.msg.f[2]);
        }
      } else if (env.msg.tag == kTagConfirm) {
        const auto i = static_cast<std::size_t>(env.msg.f[0]);
        if (i >= k || confirmed_[i]) continue;
        if (data_.parent[i] != env.from) continue;
        if (!local_check(i)) continue;
        confirmed_[i] = true;
        forward_.push_back(env.msg.f[0]);
      }
    }
  }

  bool quiescent() const override {
    return forward_.empty() &&
           last_round_ >= 2 * sources_.size() + h_ + 2;
  }

  /// In-tree verdict after the run.
  bool in_tree(std::size_t i) const { return confirmed_[i]; }

 private:
  /// v's label for tree i must be within h hops and extend its parent's
  /// final label across the connecting arc.
  bool local_check(std::size_t i) const {
    if (data_.dist[i] == kInfDist || data_.hops[i] > h_) return false;
    const NodeId p = data_.parent[i];
    if (p == kNoNode) return false;
    if (parent_label_d_[i] == kInfDist) return false;
    const auto w = g_.arc_weight(p, self_);
    if (!w) return false;
    return parent_label_d_[i] + *w == data_.dist[i] &&
           parent_label_l_[i] + 1 == data_.hops[i];
  }

  const Graph& g_;
  const std::vector<NodeId>& sources_;
  std::uint32_t h_;
  NodeId self_;
  NodeData data_;
  std::vector<Weight> parent_label_d_;
  std::vector<std::uint32_t> parent_label_l_;
  std::vector<bool> confirmed_;
  std::vector<std::int64_t> forward_;
  Round last_round_ = 0;
};

/// Round-robin child notification: in round i+1 every node with a confirmed
/// parent in tree i tells that parent about the edge.
class ChildNotifyProtocol final : public Protocol {
 public:
  ChildNotifyProtocol(NodeId self, std::vector<NodeId> parent_per_tree)
      : self_(self), parent_(std::move(parent_per_tree)) {}

  void send_phase(Context& ctx) override {
    const Round r = ctx.round();
    last_round_ = r;
    if (r == 0 || r > parent_.size()) return;
    const std::size_t i = static_cast<std::size_t>(r) - 1;
    if (parent_[i] != kNoNode && parent_[i] != self_) {
      ctx.send(parent_[i], Message(kTagChild, {static_cast<std::int64_t>(i)}));
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagChild) continue;
      children_.emplace_back(static_cast<std::size_t>(env.msg.f[0]), env.from);
    }
  }

  bool quiescent() const override { return last_round_ >= parent_.size(); }

  const std::vector<std::pair<std::size_t, NodeId>>& children() const {
    return children_;
  }

 private:
  NodeId self_;
  std::vector<NodeId> parent_;
  std::vector<std::pair<std::size_t, NodeId>> children_;
  Round last_round_ = 0;
};

}  // namespace

CsspCollection build_cssp(const Graph& g, const std::vector<NodeId>& sources,
                          std::uint32_t h, Weight delta2h,
                          const congest::RunEnv& env) {
  util::check(h >= 1, "build_cssp: need h >= 1");
  CsspCollection c;
  c.h = h;

  // Step 1: Algorithm 1 with hop bound 2h.
  PipelinedParams params;
  params.sources = sources;
  params.h = 2 * h;
  params.delta = delta2h;
  params.env = env;
  KsspResult run = pipelined_kssp(g, std::move(params));
  c.sources = run.sources;
  c.stats = run.stats;
  c.theoretical_bound = run.theoretical_bound;
  c.dist2h = std::move(run.dist);
  c.hops2h = std::move(run.hops);
  c.parent2h = run.parent;  // copied into per-node data below as well

  const std::size_t k = c.sources.size();
  const NodeId n = g.node_count();

  // Step 2: distributed verify-and-confirm of the truncated h-hop trees
  // (Lemma III.4 plus the stale-parent repair described above).
  {
    const EngineOptions opt{.max_rounds = 2 * k + h + 4, .env = env};
    const auto verify = run_nodes(g, opt, [&](NodeId v) {
      TreeVerifyProtocol::NodeData data;
      data.dist.resize(k);
      data.hops.resize(k);
      data.parent.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        data.dist[i] = c.dist2h[i][v];
        data.hops[i] = c.hops2h[i][v];
        data.parent[i] = run.parent[i][v];
      }
      return std::make_unique<TreeVerifyProtocol>(g, c.sources, h, v,
                                                  std::move(data));
    });
    c.stats += verify.stats;

    c.parent.assign(k, std::vector<NodeId>(n, kNoNode));
    c.depth.assign(k, std::vector<std::uint32_t>(n, 0));
    c.dist.assign(k, std::vector<Weight>(n, kInfDist));
    for (NodeId v = 0; v < n; ++v) {
      const TreeVerifyProtocol& p = verify.node(v);
      for (std::size_t i = 0; i < k; ++i) {
        if (!p.in_tree(i)) continue;
        c.parent[i][v] = v == c.sources[i] ? kNoNode : run.parent[i][v];
        c.depth[i][v] = v == c.sources[i] ? 0 : c.hops2h[i][v];
        c.dist[i][v] = v == c.sources[i] ? 0 : c.dist2h[i][v];
      }
    }
  }

  // Step 3: child notification (k rounds, one message per node per round).
  const EngineOptions notify_opt{.max_rounds = k + 2, .env = env};
  const auto notify = run_nodes(g, notify_opt, [&](NodeId v) {
    std::vector<NodeId> parents(k, kNoNode);
    for (std::size_t i = 0; i < k; ++i) parents[i] = c.parent[i][v];
    return std::make_unique<ChildNotifyProtocol>(v, std::move(parents));
  });
  c.stats += notify.stats;

  c.children.assign(k, std::vector<std::vector<NodeId>>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [tree, child] : notify.node(v).children()) {
      c.children[tree][v].push_back(child);
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (NodeId v = 0; v < n; ++v) {
      std::sort(c.children[i][v].begin(), c.children[i][v].end());
    }
  }
  return c;
}

}  // namespace dapsp::core
