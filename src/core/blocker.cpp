#include "core/blocker.hpp"

#include <algorithm>
#include <deque>

#include "congest/engine.hpp"
#include "core/bounds.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using congest::BfsTree;
using congest::Context;
using congest::EngineOptions;
using congest::Envelope;
using congest::Message;
using congest::Protocol;
using congest::Round;
using congest::run_nodes;
using congest::RunEnv;
using congest::RunStats;
using graph::Graph;
using graph::kNoNode;
using graph::NodeId;

namespace {

constexpr std::uint32_t kTagScoreUp = 40;   // {tree, count}
constexpr std::uint32_t kTagAncestor = 41;  // {tree, score_c}
constexpr std::uint32_t kTagDescend = 42;   // {tree}

/// Phase A: pipelined convergecast of depth-h descendant counts.  A node at
/// depth j in tree i sends its subtree count to its tree parent in round
/// (h - j) + i + 1; children (depth j+1) fire one round earlier, so every
/// count is complete when sent.  Zero counts are skipped.
class ScoreInitProtocol final : public Protocol {
 public:
  ScoreInitProtocol(const CsspCollection& cssp, NodeId self)
      : cssp_(cssp), self_(self) {
    const std::size_t k = cssp.sources.size();
    count_.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (cssp.in_tree(i, self) && cssp.depth[i][self] == cssp.h) {
        count_[i] = 1;  // this node is a depth-h leaf of tree i
      }
    }
  }

  void send_phase(Context& ctx) override {
    const Round r = ctx.round();
    last_round_ = r;
    if (r == 0) return;
    const std::size_t k = cssp_.sources.size();
    // Trees i with (h - depth) + i + 1 == r, i.e. i == r - 1 - (h - depth).
    // Depth varies per tree, so scan the candidate range: for tree i the
    // depth is fixed, giving at most one send per tree; across trees the
    // schedule guarantees i is determined by depth, so scan all trees whose
    // schedule matches (cheap: one subtraction per tree).
    for (std::size_t i = 0; i < k; ++i) {
      if (!cssp_.in_tree(i, self_)) continue;
      if (self_ == cssp_.sources[i]) continue;  // roots keep their count
      const std::uint64_t due =
          static_cast<std::uint64_t>(cssp_.h - cssp_.depth[i][self_]) + i + 1;
      if (due != r) continue;
      if (count_[i] == 0) continue;
      ctx.send(cssp_.parent[i][self_],
               Message(kTagScoreUp, {static_cast<std::int64_t>(i),
                                     static_cast<std::int64_t>(count_[i])}));
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagScoreUp) continue;
      const auto i = static_cast<std::size_t>(env.msg.f[0]);
      count_[i] += static_cast<std::uint64_t>(env.msg.f[1]);
    }
  }

  bool quiescent() const override {
    return last_round_ >= cssp_.h + cssp_.sources.size() + 1;
  }

  const std::vector<std::uint64_t>& counts() const { return count_; }

 private:
  const CsspCollection& cssp_;
  NodeId self_;
  std::vector<std::uint64_t> count_;
  Round last_round_ = 0;
};

/// Ancestor updates: the chosen blocker c streams (tree, score_c(tree))
/// pairs toward the roots along tree parent pointers; every node on the way
/// subtracts.  By Lemma III.7 the paths from c to all roots form a tree, so
/// pipelined messages never collide.
class AncestorUpdateProtocol final : public Protocol {
 public:
  AncestorUpdateProtocol(const CsspCollection& cssp, NodeId self, NodeId chosen,
                         const std::vector<std::pair<std::size_t, std::uint64_t>>*
                             chosen_entries,
                         std::vector<std::uint64_t>* scores)
      : cssp_(cssp), self_(self), scores_(scores) {
    if (self == chosen && chosen_entries != nullptr) {
      for (const auto& [tree, s] : *chosen_entries) {
        if (cssp.sources[tree] != self) {  // roots have no ancestors
          outgoing_.push_back(Message(
              kTagAncestor,
              {static_cast<std::int64_t>(tree), static_cast<std::int64_t>(s)}));
        }
      }
    }
  }

  void send_phase(Context& ctx) override {
    if (!outgoing_.empty()) {
      const Message m = outgoing_.front();
      outgoing_.pop_front();
      const auto tree = static_cast<std::size_t>(m.f[0]);
      ctx.send(cssp_.parent[tree][self_], m);
    }
    // Forward everything that arrived last round (distinct trees may have
    // distinct parents; the CSSSP in-tree property keeps per-link load at 1).
    for (const Message& m : pending_) {
      const auto tree = static_cast<std::size_t>(m.f[0]);
      if (cssp_.sources[tree] == self_) continue;  // reached the root
      ctx.send(cssp_.parent[tree][self_], m);
    }
    pending_.clear();
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagAncestor) continue;
      const auto tree = static_cast<std::size_t>(env.msg.f[0]);
      // Accept only from a child in this tree: the message must be climbing
      // the very tree it talks about.
      if (cssp_.parent[tree][env.from] != self_) continue;
      (*scores_)[tree] -= static_cast<std::uint64_t>(env.msg.f[1]);
      pending_.push_back(env.msg);
    }
  }

  bool quiescent() const override { return outgoing_.empty() && pending_.empty(); }

 private:
  const CsspCollection& cssp_;
  NodeId self_;
  std::vector<std::uint64_t>* scores_;
  std::deque<Message> outgoing_;  // only at the chosen blocker
  std::vector<Message> pending_;  // relays buffered for next round
};

/// Algorithm 4: descendant updates.  c streams tree ids down the (shared,
/// by Lemma III.6) subtrees; every descendant zeroes its score for that tree
/// and forwards to its children in the same tree.
class DescendantUpdateProtocol final : public Protocol {
 public:
  DescendantUpdateProtocol(const CsspCollection& cssp, NodeId self,
                           NodeId chosen,
                           const std::vector<std::pair<std::size_t, std::uint64_t>>*
                               chosen_entries,
                           std::vector<std::uint64_t>* scores)
      : cssp_(cssp), self_(self), scores_(scores) {
    if (self == chosen && chosen_entries != nullptr) {
      for (const auto& [tree, s] : *chosen_entries) {
        (void)s;
        pending_.push_back(static_cast<std::int64_t>(tree));
      }
      is_chosen_ = true;
    }
  }

  void send_phase(Context& ctx) override {
    if (is_chosen_) {
      // Line 2 of Algorithm 4: round i sends the i-th entry of list_c.
      if (next_ < pending_.size()) {
        const auto tree = static_cast<std::size_t>(pending_[next_]);
        ++next_;
        for (const NodeId child : cssp_.children[tree][self_]) {
          ctx.send(child, Message(kTagDescend, {static_cast<std::int64_t>(tree)}));
        }
      }
      return;
    }
    for (const std::int64_t t : forward_) {
      const auto tree = static_cast<std::size_t>(t);
      for (const NodeId child : cssp_.children[tree][self_]) {
        ctx.send(child, Message(kTagDescend, {t}));
      }
    }
    forward_.clear();
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagDescend) continue;
      const auto tree = static_cast<std::size_t>(env.msg.f[0]);
      // Lines 5-6: only react when the message came down this very tree.
      if (cssp_.parent[tree][self_] != env.from) continue;
      (*scores_)[tree] = 0;
      forward_.push_back(env.msg.f[0]);
    }
  }

  bool quiescent() const override {
    if (is_chosen_) return next_ >= pending_.size();
    return forward_.empty();
  }

 private:
  const CsspCollection& cssp_;
  NodeId self_;
  std::vector<std::uint64_t>* scores_;
  std::vector<std::int64_t> pending_;  // tree ids (only at c)
  std::vector<std::int64_t> forward_;
  std::size_t next_ = 0;
  bool is_chosen_ = false;
};

}  // namespace

ScoreMatrix init_scores_sequential(const CsspCollection& cssp) {
  const std::size_t k = cssp.sources.size();
  const auto n = static_cast<NodeId>(cssp.parent.empty()
                                         ? 0
                                         : cssp.parent[0].size());
  ScoreMatrix scores(n, std::vector<std::uint64_t>(k, 0));
  for (std::size_t i = 0; i < k; ++i) {
    for (NodeId v = 0; v < n; ++v) {
      if (!cssp.in_tree(i, v) || cssp.depth[i][v] != cssp.h) continue;
      // Credit every ancestor of this depth-h leaf (and the leaf itself).
      NodeId u = v;
      while (u != kNoNode) {
        ++scores[u][i];
        u = cssp.parent[i][u];
      }
    }
  }
  return scores;
}

ScoreMatrix init_scores_distributed(const Graph& g, const CsspCollection& cssp,
                                    RunStats* stats, const RunEnv& env) {
  const NodeId n = g.node_count();
  const auto run = run_nodes(
      g, {.max_rounds = cssp.h + cssp.sources.size() + 2, .env = env},
      [&](NodeId v) { return std::make_unique<ScoreInitProtocol>(cssp, v); });
  if (stats != nullptr) *stats += run.stats;

  ScoreMatrix scores(n);
  for (NodeId v = 0; v < n; ++v) scores[v] = run.node(v).counts();
  return scores;
}

BlockerSetResult compute_blocker_set(const Graph& g,
                                     const CsspCollection& cssp,
                                     const RunEnv& env) {
  const NodeId n = g.node_count();
  const std::size_t k = cssp.sources.size();
  BlockerSetResult res;
  res.size_bound = bounds::blocker_set_size(n, cssp.h);

  ScoreMatrix scores = init_scores_distributed(g, cssp, &res.stats, env);
  res.score_init_rounds = res.stats.rounds;

  const BfsTree tree = congest::build_bfs_tree(g, 0, &res.stats, env);

  while (true) {
    // Select the node covering the most uncovered h-paths.
    std::vector<std::int64_t> totals(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      std::uint64_t t = 0;
      for (std::size_t i = 0; i < k; ++i) t += scores[v][i];
      totals[v] = static_cast<std::int64_t>(t);
    }
    const auto [best, c] =
        congest::converge_max(g, tree, totals, &res.stats, env);
    if (best == 0) break;
    congest::broadcast_values(g, tree, {static_cast<std::int64_t>(c)},
                              &res.stats, env);
    res.blockers.push_back(c);

    // Snapshot c's nonzero per-tree scores; both update phases consume it.
    std::vector<std::pair<std::size_t, std::uint64_t>> entries;
    for (std::size_t i = 0; i < k; ++i) {
      if (scores[c][i] > 0) entries.emplace_back(i, scores[c][i]);
    }

    // Ancestor updates, then descendant updates (Algorithm 4), each in
    // k + h + O(1) rounds.
    const EngineOptions opt{.max_rounds = k + cssp.h + 4, .env = env};
    const auto fold_update = [&res](const RunStats& phase) {
      res.update_congestion =
          std::max(res.update_congestion, phase.max_link_congestion);
      res.max_update_phase_rounds =
          std::max(res.max_update_phase_rounds, phase.last_message_round);
      res.stats += phase;
    };
    fold_update(run_nodes(g, opt, [&](NodeId v) {
      return std::make_unique<AncestorUpdateProtocol>(cssp, v, c, &entries,
                                                      &scores[v]);
    }).stats);
    fold_update(run_nodes(g, opt, [&](NodeId v) {
      return std::make_unique<DescendantUpdateProtocol>(cssp, v, c, &entries,
                                                        &scores[v]);
    }).stats);
    // c zeroes its own scores (local step, Algorithm 4 line 1).
    for (std::size_t i = 0; i < k; ++i) scores[c][i] = 0;
  }
  return res;
}

bool covers_all_h_paths(const CsspCollection& cssp,
                        const std::vector<NodeId>& blockers) {
  std::vector<bool> in_q(cssp.parent.empty() ? 0 : cssp.parent[0].size(),
                         false);
  for (const NodeId b : blockers) in_q[b] = true;
  for (std::size_t i = 0; i < cssp.sources.size(); ++i) {
    const auto& parent = cssp.parent[i];
    for (NodeId v = 0; v < static_cast<NodeId>(parent.size()); ++v) {
      if (!cssp.in_tree(i, v) || cssp.depth[i][v] != cssp.h) continue;
      bool covered = false;
      for (NodeId u = v; u != kNoNode; u = parent[u]) {
        if (in_q[u]) {
          covered = true;
          break;
        }
      }
      if (in_q[cssp.sources[i]]) covered = true;
      if (!covered) return false;
    }
  }
  return true;
}

}  // namespace dapsp::core
