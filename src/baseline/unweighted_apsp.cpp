#include "baseline/unweighted_apsp.hpp"

#include <algorithm>

#include "congest/engine.hpp"
#include "util/int_math.hpp"

namespace dapsp::baseline {

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

constexpr std::uint32_t kTagLabel = 60;  // {source_index, d}

struct PaConfig {
  const Graph* g = nullptr;
  std::vector<NodeId> sources;
  std::vector<std::int32_t> source_index;
  Weight cap = 0;
};

class PositiveApspProtocol final : public Protocol {
 public:
  PositiveApspProtocol(
      const PaConfig& cfg, NodeId self,
      const std::function<std::optional<Weight>(const graph::Edge&)>& weight_of)
      : cfg_(cfg), self_(self) {
    d_of_.assign(cfg.sources.size(), kInfDist);
    sends_.assign(cfg.sources.size(), 0);
    for (const auto& e : cfg.g->in_edges(self)) {
      const auto w = weight_of(e);
      if (!w) continue;
      util::check(*w >= 1, "positive_apsp: transformed weights must be >= 1");
      const auto it = std::lower_bound(
          in_weight_.begin(), in_weight_.end(), e.from,
          [](const auto& p, NodeId v) { return p.first < v; });
      if (it != in_weight_.end() && it->first == e.from) {
        it->second = std::min(it->second, *w);
      } else {
        in_weight_.insert(it, {e.from, *w});
      }
    }
    const std::int32_t idx = cfg.source_index[self];
    if (idx >= 0) {
      d_of_[static_cast<std::size_t>(idx)] = 0;
      labels_.push_back({0, static_cast<std::uint32_t>(idx)});
    }
  }

  void send_phase(Context& ctx) override {
    const Round r = ctx.round();
    last_round_ = r;
    if (labels_.empty()) return;
    // One label fires per round: d + pos is strictly increasing.
    std::size_t lo = 0, hi = labels_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (static_cast<Round>(labels_[mid].d) + mid + 1 < r) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= labels_.size() ||
        static_cast<Round>(labels_[lo].d) + lo + 1 != r) {
      return;
    }
    ++sends_[labels_[lo].src];
    ctx.broadcast(Message(kTagLabel, {static_cast<std::int64_t>(labels_[lo].src),
                                      labels_[lo].d}));
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagLabel) continue;
      const auto it = std::lower_bound(
          in_weight_.begin(), in_weight_.end(), env.from,
          [](const auto& p, NodeId v) { return p.first < v; });
      if (it == in_weight_.end() || it->first != env.from) continue;
      const auto src = static_cast<std::uint32_t>(env.msg.f[0]);
      const Weight d = env.msg.f[1] + it->second;
      if (cfg_.cap > 0 && d > cfg_.cap) continue;
      if (d >= d_of_[src]) continue;
      // Replace the label: remove the old position, insert the new one.
      if (d_of_[src] != kInfDist) {
        const Label old{d_of_[src], src};
        const auto pos = std::lower_bound(labels_.begin(), labels_.end(), old);
        labels_.erase(pos);
      }
      d_of_[src] = d;
      const Label nw{d, src};
      labels_.insert(std::lower_bound(labels_.begin(), labels_.end(), nw), nw);
      settle_round_ = ctx.round();
    }
  }

  bool quiescent() const override {
    if (labels_.empty()) return true;
    return static_cast<Round>(labels_.back().d) + labels_.size() <= last_round_;
  }

  /// Schedules d + pos + 1 are strictly increasing, so the next spontaneous
  /// send is the first schedule past `now`.  Once every schedule has passed
  /// the node keeps polling (send_phase is then a no-op) so last_round_ --
  /// which quiescent() compares against -- advances exactly as on the dense
  /// path.
  Round next_send_round(Round now) const override {
    if (labels_.empty()) return kNeverSends;
    std::size_t lo = 0, hi = labels_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (static_cast<Round>(labels_[mid].d) + mid + 1 <= now) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= labels_.size()) return now + 1;
    return static_cast<Round>(labels_[lo].d) + lo + 1;
  }

  const std::vector<Weight>& dist() const { return d_of_; }
  Round settle_round() const { return settle_round_; }
  std::uint64_t max_sends() const {
    std::uint64_t m = 0;
    for (const auto s : sends_) m = std::max(m, s);
    return m;
  }

 private:
  struct Label {
    Weight d;
    std::uint32_t src;
    friend auto operator<=>(const Label&, const Label&) = default;
  };

  const PaConfig& cfg_;
  NodeId self_;
  std::vector<std::pair<NodeId, Weight>> in_weight_;
  std::vector<Label> labels_;  // sorted by (d, src)
  std::vector<Weight> d_of_;
  std::vector<std::uint64_t> sends_;
  Round settle_round_ = 0;
  Round last_round_ = 0;
};

}  // namespace

PositiveApspResult positive_apsp(const Graph& g, PositiveApspParams params) {
  const NodeId n = g.node_count();
  if (params.sources.empty()) {
    params.sources.resize(n);
    for (NodeId v = 0; v < n; ++v) params.sources[v] = v;
  }
  if (!params.weight_of) {
    params.weight_of = [](const graph::Edge&) -> std::optional<Weight> {
      return Weight{1};
    };
    if (params.distance_cap == 0) {
      params.distance_cap = n > 1 ? n - 1 : 1;  // unit weights: hop distance
    }
  }
  util::check(params.distance_cap > 0 || params.max_rounds > 0,
              "positive_apsp: need a distance cap or explicit round budget");

  PaConfig cfg;
  cfg.g = &g;
  cfg.sources = params.sources;
  cfg.cap = params.distance_cap;
  cfg.source_index.assign(n, -1);
  for (std::size_t i = 0; i < cfg.sources.size(); ++i) {
    cfg.source_index[cfg.sources[i]] = static_cast<std::int32_t>(i);
  }

  const Round budget =
      params.max_rounds > 0
          ? params.max_rounds
          : static_cast<Round>(params.distance_cap) + cfg.sources.size() + 4;
  const auto run =
      run_nodes(g, {.max_rounds = budget, .env = params.env}, [&](NodeId v) {
        return std::make_unique<PositiveApspProtocol>(cfg, v, params.weight_of);
      });

  PositiveApspResult res;
  res.stats = run.stats;
  res.sources = cfg.sources;
  res.dist.assign(cfg.sources.size(), std::vector<Weight>(n, kInfDist));
  for (NodeId v = 0; v < n; ++v) {
    const PositiveApspProtocol& p = run.node(v);
    for (std::size_t i = 0; i < cfg.sources.size(); ++i) {
      res.dist[i][v] = p.dist()[i];
    }
    res.settle_round = std::max(res.settle_round, p.settle_round());
    res.max_sends_per_node_per_source =
        std::max(res.max_sends_per_node_per_source, p.max_sends());
  }
  return res;
}

PositiveApspResult unweighted_apsp(const Graph& g,
                                   const congest::RunEnv& env) {
  PositiveApspParams params;
  params.env = env;
  return positive_apsp(g, std::move(params));
}

std::vector<std::vector<bool>> zero_reach_congest(const Graph& g,
                                                  congest::RunStats* stats,
                                                  const congest::RunEnv& env) {
  PositiveApspParams params;
  params.weight_of = [](const graph::Edge& e) -> std::optional<Weight> {
    if (e.weight != 0) return std::nullopt;
    return Weight{1};
  };
  params.distance_cap = g.node_count() > 1 ? g.node_count() - 1 : 1;
  params.env = env;
  PositiveApspResult run = positive_apsp(g, std::move(params));
  if (stats != nullptr) *stats += run.stats;

  const NodeId n = g.node_count();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId s = 0; s < n; ++s) {
    reach[s][s] = true;
    for (NodeId v = 0; v < n; ++v) {
      if (run.dist[s][v] != graph::kInfDist) reach[s][v] = true;
    }
  }
  return reach;
}

}  // namespace dapsp::baseline
