#include "core/blocker_apsp.hpp"

#include <algorithm>

#include "baseline/bf_apsp.hpp"
#include "congest/primitives.hpp"
#include "core/blocker.hpp"
#include "core/bounds.hpp"
#include "congest/engine.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using congest::GatherItem;
using congest::RunStats;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

namespace {

constexpr std::uint32_t kTagFinalDist = 70;  // {source_index, hops, dist}

/// Parent fix-up as pipelined per-source BFS waves over *tight* edges
/// (arcs p->v with dist(x,p) + w(p,v) = dist(x,v)).
///
/// Re-deriving parents from distance equality alone is wrong with
/// zero-weight edges: two nodes at equal distance joined by a zero edge
/// satisfy each other's equation and can adopt each other (a parent 2-cycle
/// that never reaches the source).  The wave restores a well-founded order:
/// source i announces (i, hop 0, dist 0) in round i+1; a node that hears a
/// tight predecessor settles with hop+1, adopting the lowest-hop (then
/// smallest-id) announcer of that round, and relays next round.  First
/// arrival is minimal hop count, so parents are exactly the hop-minimal /
/// smallest-id convention of the sequential oracle and chains must reach
/// the source.  Settling happens once per (node, source): k + max-hops + 1
/// rounds total, per-link congestion up to the number of waves crossing a
/// link in one round (recorded by the engine, never hidden).
class ParentFixupProtocol final : public congest::Protocol {
 public:
  ParentFixupProtocol(const Graph& g, NodeId self,
                      std::vector<Weight> final_dist,
                      std::int32_t self_source_index,
                      std::vector<NodeId>* parent_out)
      : dist_(std::move(final_dist)),
        self_source_(self_source_index),
        parent_(parent_out) {
    for (const auto& e : g.in_edges(self)) {
      in_weight_.emplace_back(e.from, e.weight);
    }
    in_weight_.erase(
        std::unique(in_weight_.begin(), in_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        in_weight_.end());
    settled_.assign(dist_.size(), false);
    hop_.assign(dist_.size(), 0);
  }

  void send_phase(congest::Context& ctx) override {
    const congest::Round r = ctx.round();
    last_round_ = r;
    if (self_source_ >= 0 &&
        r == static_cast<congest::Round>(self_source_) + 1) {
      const auto i = static_cast<std::size_t>(self_source_);
      settled_[i] = true;
      out_.push_back(i);
    }
    for (const std::size_t i : out_) {
      ctx.broadcast(congest::Message(
          kTagFinalDist, {static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(hop_[i]), dist_[i]}));
    }
    out_.clear();
  }

  void receive_phase(congest::Context& ctx) override {
    for (const congest::Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagFinalDist) continue;
      const auto it = std::lower_bound(
          in_weight_.begin(), in_weight_.end(), env.from,
          [](const auto& p, NodeId v) { return p.first < v; });
      if (it == in_weight_.end() || it->first != env.from) continue;
      const auto i = static_cast<std::size_t>(env.msg.f[0]);
      if (settled_[i] || dist_[i] == kInfDist) continue;
      if (env.msg.f[2] + it->second != dist_[i]) continue;  // not tight
      const auto hop = static_cast<std::uint32_t>(env.msg.f[1]) + 1;
      const NodeId cur = (*parent_)[i];
      if (cur == graph::kNoNode || hop < hop_[i] ||
          (hop == hop_[i] && env.from < cur)) {
        (*parent_)[i] = env.from;
        hop_[i] = hop;
      }
      touched_.push_back(i);
    }
    // Everything that received a tight announcement this round settles now
    // and relays next round.
    for (const std::size_t i : touched_) {
      if (settled_[i]) continue;
      settled_[i] = true;
      out_.push_back(i);
    }
    touched_.clear();
  }

  bool quiescent() const override {
    return out_.empty() &&
           (self_source_ < 0 ||
            last_round_ >= static_cast<congest::Round>(self_source_) + 1);
  }

 private:
  std::vector<Weight> dist_;
  std::int32_t self_source_;
  std::vector<NodeId>* parent_;
  std::vector<std::pair<NodeId, Weight>> in_weight_;
  std::vector<bool> settled_;
  std::vector<std::uint32_t> hop_;
  std::vector<std::size_t> out_;      // settled last round, to relay
  std::vector<std::size_t> touched_;  // sources heard this round
  congest::Round last_round_ = 0;
};

/// Runs the fix-up phase over the final distance matrix in `res`,
/// overwriting res.parent rows for reachable non-source nodes.
RunStats run_parent_fixup(const Graph& g, BlockerApspResult& res,
                          const congest::RunEnv& env) {
  const NodeId n = g.node_count();
  const std::size_t k = res.sources.size();
  std::vector<std::int32_t> source_of(n, -1);
  for (std::size_t i = 0; i < k; ++i) {
    source_of[res.sources[i]] = static_cast<std::int32_t>(i);
  }
  std::vector<std::vector<NodeId>> parents(
      n, std::vector<NodeId>(k, graph::kNoNode));
  const congest::EngineOptions opt{.max_rounds = k + n + 2, .env = env};
  const RunStats stats = congest::run_nodes(g, opt, [&](NodeId v) {
    std::vector<Weight> dist(k);
    for (std::size_t i = 0; i < k; ++i) dist[i] = res.dist[i][v];
    return std::make_unique<ParentFixupProtocol>(g, v, std::move(dist),
                                                 source_of[v], &parents[v]);
  }).stats;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < k; ++i) {
      if (v == res.sources[i] || res.dist[i][v] == kInfDist) continue;
      if (parents[v][i] != graph::kNoNode) res.parent[i][v] = parents[v][i];
    }
  }
  return stats;
}

}  // namespace

BlockerApspResult blocker_apsp(const Graph& g, BlockerApspParams params) {
  const NodeId n = g.node_count();
  if (params.sources.empty()) {
    params.sources.resize(n);
    for (NodeId v = 0; v < n; ++v) params.sources[v] = v;
  }
  std::sort(params.sources.begin(), params.sources.end());
  params.sources.erase(
      std::unique(params.sources.begin(), params.sources.end()),
      params.sources.end());
  const std::size_t k = params.sources.size();

  if (params.h == 0) {
    params.h =
        params.delta_for_h > 0
            ? static_cast<std::uint32_t>(bounds::choose_h_for_delta(
                  n, k, static_cast<std::uint64_t>(params.delta_for_h)))
            : static_cast<std::uint32_t>(bounds::choose_h_for_weight(
                  n, k,
                  static_cast<std::uint64_t>(
                      std::max<Weight>(g.max_weight(), 1))));
  }
  // Bound on 2h-hop shortest path distances.
  const Weight delta2h =
      2 * static_cast<Weight>(params.h) * std::max<Weight>(g.max_weight(), 1);

  BlockerApspResult res;
  res.sources = params.sources;
  res.h = params.h;

  // Step 1: CSSSP (Algorithm 1 with hop bound 2h + child notification).
  CsspCollection cssp =
      build_cssp(g, params.sources, params.h, delta2h, params.env);
  res.stats += cssp.stats;
  res.cssp_rounds = cssp.stats.rounds;

  // Step 2: blocker set.
  BlockerSetResult bs = compute_blocker_set(g, cssp, params.env);
  res.blockers = bs.blockers;
  res.stats += bs.stats;
  res.blocker_rounds = bs.stats.rounds;

  // Step 3: per-blocker full SSSP trees, forward and reverse.
  const std::size_t q = res.blockers.size();
  std::vector<std::vector<Weight>> from_blocker(q);  // dist(c, v), known at v
  std::vector<std::vector<NodeId>> from_blocker_parent(q);
  std::vector<std::vector<Weight>> to_blocker(q);    // dist(v, c), known at v
  RunStats sssp_stats;
  for (std::size_t j = 0; j < q; ++j) {
    auto fwd = baseline::bf_sssp(g, res.blockers[j], /*reverse=*/false,
                                 /*max_rounds=*/0, params.env);
    sssp_stats += fwd.stats;
    from_blocker[j] = std::move(fwd.dist);
    from_blocker_parent[j] = std::move(fwd.parent);
    auto rev = baseline::bf_sssp(g, res.blockers[j], /*reverse=*/true,
                                 /*max_rounds=*/0, params.env);
    sssp_stats += rev.stats;
    to_blocker[j] = std::move(rev.dist);
  }
  res.stats += sssp_stats;
  res.sssp_rounds = sssp_stats.rounds;

  // Step 4: every source x announces dist(x, c) for each blocker c.
  RunStats combine_stats;
  const congest::BfsTree tree =
      congest::build_bfs_tree(g, 0, &combine_stats, params.env);
  std::vector<std::vector<GatherItem>> items(n);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId x = params.sources[i];
    for (std::size_t j = 0; j < q; ++j) {
      if (to_blocker[j][x] == kInfDist) continue;
      items[x].push_back(GatherItem{x, static_cast<std::int64_t>(j),
                                    to_blocker[j][x]});
    }
  }
  const std::vector<GatherItem> announced =
      congest::gather_to_all(g, tree, items, &combine_stats, params.env);
  res.stats += combine_stats;
  res.combine_rounds = combine_stats.rounds;

  // Step 5: local combine.  dist(x,c) comes from the announcements, and
  // dist(c,v) is node-local knowledge from the forward SSSPs.
  std::vector<std::vector<Weight>> source_to_blocker(
      k, std::vector<Weight>(q, kInfDist));
  std::vector<std::int32_t> source_index(n, -1);
  for (std::size_t i = 0; i < k; ++i) {
    source_index[params.sources[i]] = static_cast<std::int32_t>(i);
  }
  for (const GatherItem& it : announced) {
    const std::int32_t i = source_index[it.origin];
    util::check(i >= 0, "blocker_apsp: announcement from a non-source");
    source_to_blocker[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(it.a)] = it.b;
  }

  res.dist.assign(k, std::vector<Weight>(n, kInfDist));
  res.parent.assign(k, std::vector<NodeId>(n, kNoNode));
  for (std::size_t i = 0; i < k; ++i) {
    for (NodeId v = 0; v < n; ++v) {
      Weight best = cssp.dist2h[i][v];
      NodeId parent = best == kInfDist ? kNoNode : cssp.parent2h[i][v];
      for (std::size_t j = 0; j < q; ++j) {
        const Weight a = source_to_blocker[i][j];
        const Weight b = from_blocker[j][v];
        if (a == kInfDist || b == kInfDist) continue;
        if (a + b < best) {
          best = a + b;
          parent = from_blocker_parent[j][v];
        }
      }
      res.dist[i][v] = best;
      res.parent[i][v] = parent;
    }
  }

  // Parent fix-up: a blocker node reached via its own SSSP tree root has no
  // locally-known last edge (its reverse-SSSP parent chain lives at other
  // nodes).  One k-round exchange repairs every parent: in round i each node
  // broadcasts its final distance from source i and receivers adopt the
  // smallest-id neighbor whose announced distance extends to their own.
  {
    const RunStats fix = run_parent_fixup(g, res, params.env);
    res.stats += fix;
    res.combine_rounds += fix.rounds;
  }

  res.theoretical_bound = bounds::blocker_apsp(
      n, k, std::max<std::uint64_t>(q, 1), params.h,
      static_cast<std::uint64_t>(delta2h));
  return res;
}

}  // namespace dapsp::core
