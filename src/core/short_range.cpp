#include "core/short_range.hpp"

#include <algorithm>
#include <optional>

#include "congest/engine.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Protocol;
using congest::Round;
using congest::run_nodes;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

namespace {

constexpr std::uint32_t kTagPair = 20;  // {source_index, d, l}

struct SrConfig {
  const Graph* g = nullptr;
  std::uint32_t h = 0;
  GammaSq gamma;
  KappaKernel kernel;  // batched/fast-path kappa arithmetic for this gamma
  std::vector<NodeId> sources;
  const std::vector<std::vector<Weight>>* initial = nullptr;
};

class ShortRangeProtocol final : public Protocol {
 public:
  ShortRangeProtocol(const SrConfig& cfg, NodeId self)
      : cfg_(cfg), self_(self) {
    const std::size_t k = cfg.sources.size();
    d_.assign(k, kInfDist);
    l_.assign(k, 0);
    p_.assign(k, kNoNode);
    dirty_.assign(k, false);
    sends_per_source_.assign(k, 0);
    for (const auto& e : cfg.g->in_edges(self)) {
      in_weight_.emplace_back(e.from, e.weight);
    }
    in_weight_.erase(
        std::unique(in_weight_.begin(), in_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        in_weight_.end());
  }

  void init(Context& ctx) override {
    for (std::size_t i = 0; i < cfg_.sources.size(); ++i) {
      Weight d0 = kInfDist;
      if (cfg_.initial != nullptr && !cfg_.initial->empty()) {
        d0 = (*cfg_.initial)[i][self_];
      } else if (cfg_.sources[i] == self_) {
        d0 = 0;
      }
      if (d0 != kInfDist) {
        d_[i] = d0;
        l_[i] = 0;
        dirty_[i] = true;
      }
    }
    // The paper's Algorithm 2 sends (0,0) from the source in round 0.
    emit_due(ctx, 0);
  }

  void send_phase(Context& ctx) override { emit_due(ctx, ctx.round()); }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagPair) continue;
      const auto w = arc_weight_from(env.from);
      if (!w) continue;
      const auto i = static_cast<std::size_t>(env.msg.f[0]);
      const Weight d = env.msg.f[1] + *w;
      const auto l = static_cast<std::uint32_t>(env.msg.f[2]) + 1;
      if (l > cfg_.h) continue;
      // Step 6: adopt strictly better (d, l) pairs.
      if (d < d_[i] || (d == d_[i] && l < l_[i])) {
        d_[i] = d;
        l_[i] = l;
        p_[i] = env.from;
        dirty_[i] = true;
        settle_round_ = ctx.round();
      }
    }
  }

  bool quiescent() const override {
    return std::none_of(dirty_.begin(), dirty_.end(), [](bool b) { return b; });
  }

  const std::vector<Weight>& dist() const { return d_; }
  const std::vector<std::uint32_t>& hops() const { return l_; }
  const std::vector<NodeId>& parent() const { return p_; }
  Round settle_round() const { return settle_round_; }
  /// Max messages emitted for any single source (Lemma II.15's congestion).
  std::uint64_t max_sends_one_source() const {
    std::uint64_t m = 0;
    for (const std::uint64_t c : sends_per_source_) m = std::max(m, c);
    return m;
  }
  std::uint64_t late_sends() const { return late_; }

 private:
  void emit_due(Context& ctx, Round r) {
    // Stage dirty sources, resolve their send rounds in one batched kernel
    // pass, then emit the ones due now.
    due_idx_.clear();
    due_keys_.clear();
    for (std::size_t i = 0; i < d_.size(); ++i) {
      if (!dirty_[i]) continue;
      due_idx_.push_back(i);
      due_keys_.push_back(Key{d_[i], l_[i]});
    }
    due_ck_.resize(due_keys_.size());
    cfg_.kernel.ceil_kappa_span(due_keys_, due_ck_);
    for (std::size_t j = 0; j < due_idx_.size(); ++j) {
      const std::uint64_t due = due_ck_[j];
      if (due > r) continue;  // scheduled for a later round
      if (due < r) ++late_;   // should never happen (invariant violation)
      const std::size_t i = due_idx_[j];
      dirty_[i] = false;
      ++sends_per_source_[i];
      ctx.broadcast(Message(kTagPair, {static_cast<std::int64_t>(i), d_[i],
                                       static_cast<std::int64_t>(l_[i])}));
    }
  }

  std::optional<Weight> arc_weight_from(NodeId y) const {
    const auto it = std::lower_bound(
        in_weight_.begin(), in_weight_.end(), y,
        [](const auto& p, NodeId v) { return p.first < v; });
    if (it == in_weight_.end() || it->first != y) return std::nullopt;
    return it->second;
  }

  const SrConfig& cfg_;
  NodeId self_;
  std::vector<Weight> d_;
  std::vector<std::uint32_t> l_;
  std::vector<NodeId> p_;
  std::vector<bool> dirty_;
  std::vector<std::pair<NodeId, Weight>> in_weight_;
  Round settle_round_ = 0;
  std::vector<std::uint64_t> sends_per_source_;
  std::uint64_t late_ = 0;
  std::vector<std::size_t> due_idx_;   // per-round scratch, grow-only
  std::vector<Key> due_keys_;
  std::vector<std::uint64_t> due_ck_;
};

}  // namespace

void ShortRangeParams::finalize(const Graph& g) {
  util::check(!sources.empty(), "ShortRangeParams: need at least one source");
  util::check(h >= 1, "ShortRangeParams: need h >= 1");
  util::check(delta >= 0, "ShortRangeParams: delta must be non-negative");
  for (const NodeId s : sources) {
    util::check(s < g.node_count(), "ShortRangeParams: source out of range");
  }
  if (!initial.empty()) {
    util::check(initial.size() == sources.size(),
                "ShortRangeParams: initial must have one row per source");
    for (const auto& row : initial) {
      util::check(row.size() == g.node_count(),
                  "ShortRangeParams: initial row must have one entry per node");
    }
  }
  if (gamma.num == 0 && gamma.den == 0) {
    gamma = sources.size() == 1
                ? GammaSq{h, 1}  // the paper's sqrt(h)
                : GammaSq::paper(sources.size(), h,
                                 static_cast<std::uint64_t>(delta));
  }
}

ShortRangeResult short_range(const Graph& g, ShortRangeParams params) {
  params.finalize(g);
  const NodeId n = g.node_count();
  const std::size_t k = params.sources.size();

  SrConfig cfg;
  cfg.g = &g;
  cfg.h = params.h;
  cfg.gamma = params.gamma;
  cfg.kernel = KappaKernel(cfg.gamma);
  cfg.sources = params.sources;
  cfg.initial = &params.initial;

  ShortRangeResult res;
  res.sources = params.sources;
  res.dilation_bound =
      util::ceil_mul_sqrt(static_cast<std::uint64_t>(params.delta),
                          params.gamma.num, params.gamma.den) +
      params.h + 2;
  res.congestion_bound =
      params.gamma.num == 0
          ? params.h + 1
          : util::ceil_mul_sqrt(params.h, params.gamma.den, params.gamma.num) +
                1;

  const auto run = run_nodes(
      g, {.max_rounds = res.dilation_bound, .env = params.env},
      [&](NodeId v) { return std::make_unique<ShortRangeProtocol>(cfg, v); });
  res.stats = run.stats;

  res.dist.assign(k, std::vector<Weight>(n, kInfDist));
  res.hops.assign(k, std::vector<std::uint32_t>(n, 0));
  res.parent.assign(k, std::vector<NodeId>(n, kNoNode));
  for (NodeId v = 0; v < n; ++v) {
    const ShortRangeProtocol& p = run.node(v);
    for (std::size_t i = 0; i < k; ++i) {
      res.dist[i][v] = p.dist()[i];
      res.hops[i][v] = p.hops()[i];
      res.parent[i][v] = p.parent()[i];
    }
    res.settle_round = std::max(res.settle_round, p.settle_round());
    res.max_sends_per_node =
        std::max(res.max_sends_per_node, p.max_sends_one_source());
    res.late_sends += p.late_sends();
  }
  return res;
}

}  // namespace dapsp::core
