#include "congest/primitives.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "congest/faults.hpp"
#include "util/int_math.hpp"

namespace dapsp::congest {

using graph::Graph;
using graph::kNoNode;
using graph::NodeId;

namespace {

enum Tag : std::uint32_t {
  kBfsToken = 1,   // {depth}
  kBfsJoin = 2,    // {} -> sent to adopted parent
  kBcast = 3,      // {index, total, value}
  kConvMax = 4,    // {value, argmin_id}
  kGatherUp = 5,   // {origin, a, b}
  kGatherDone = 6, // {count} root -> everyone via kBcast reuse
};

// A fault plan may deliver one message twice (congest/faults.hpp), so each
// primitive takes a repeated message once: a duplicate carries nothing that
// its first copy did not.

/// Marks `from` among `kids` (a node's children, ascending as
/// build_bfs_tree leaves them); true only the first time it is marked.
bool first_from_child(const std::vector<NodeId>& kids,
                      std::vector<char>& marked, NodeId from) {
  const auto it = std::lower_bound(kids.begin(), kids.end(), from);
  if (it == kids.end() || *it != from) return false;
  char& mark = marked[static_cast<std::size_t>(it - kids.begin())];
  if (mark != 0) return false;
  mark = 1;
  return true;
}

/// --- BFS tree ------------------------------------------------------------

class BfsProtocol final : public Protocol {
 public:
  BfsProtocol(NodeId root, NodeId self) : root_(root), self_(self) {}

  void init(Context& ctx) override {
    if (self_ == root_) {
      depth_ = 0;
      joined_ = true;
      ctx.broadcast(Message(kBfsToken, {0}));
    }
  }

  void send_phase(Context& ctx) override {
    if (pending_token_) {
      pending_token_ = false;
      ctx.broadcast(Message(kBfsToken, {depth_}));
      ctx.send(parent_, Message(kBfsJoin, {}));
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag == kBfsToken && !joined_) {
        // Inbox is sender-ascending, so the first token wins => min-id parent.
        joined_ = true;
        parent_ = env.from;
        depth_ = static_cast<std::uint32_t>(env.msg.f[0]) + 1;
        pending_token_ = true;
      } else if (env.msg.tag == kBfsJoin) {
        children_.push_back(env.from);
      }
    }
  }

  bool quiescent() const override { return !pending_token_; }

  Round next_send_round(Round now) const override {
    return pending_token_ ? now + 1 : kNeverSends;
  }

  NodeId parent() const { return parent_; }
  std::uint32_t depth() const { return depth_; }
  const std::vector<NodeId>& children() const { return children_; }
  bool joined() const { return joined_; }

 private:
  NodeId root_;
  NodeId self_;
  NodeId parent_ = kNoNode;
  std::uint32_t depth_ = 0;
  bool joined_ = false;
  bool pending_token_ = false;
  std::vector<NodeId> children_;
};

/// --- Pipelined broadcast ---------------------------------------------------

class BroadcastProtocol final : public Protocol {
 public:
  BroadcastProtocol(const BfsTree& tree, NodeId self,
                    const std::vector<std::int64_t>* root_values)
      : tree_(tree), self_(self) {
    if (self == tree.root) {
      received_.assign(root_values->begin(), root_values->end());
      total_ = received_.size();
    }
  }

  void send_phase(Context& ctx) override {
    // Root injects one value per round; relays forward what has arrived.
    if (self_ == tree_.root) {
      if (next_ < received_.size()) {
        const Message m(kBcast,
                        {static_cast<std::int64_t>(next_),
                         static_cast<std::int64_t>(received_.size()),
                         received_[next_]});
        for (const NodeId c : tree_.children[self_]) ctx.send(c, m);
        ++next_;
      }
      return;
    }
    if (!forward_.empty()) {
      const Message m = forward_.front();
      forward_.pop_front();
      for (const NodeId c : tree_.children[self_]) ctx.send(c, m);
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kBcast) continue;
      const auto index = static_cast<std::size_t>(env.msg.f[0]);
      if (received_.size() <= index) {
        received_.resize(index + 1);
        got_.resize(index + 1);
      }
      if (got_[index] != 0) continue;
      got_[index] = 1;
      total_ = static_cast<std::size_t>(env.msg.f[1]);
      received_[index] = env.msg.f[2];
      ++have_;
      forward_.push_back(env.msg);
    }
  }

  bool quiescent() const override {
    if (self_ == tree_.root) return next_ >= received_.size();
    return forward_.empty();
  }

  Round next_send_round(Round now) const override {
    return quiescent() ? kNeverSends : now + 1;
  }

  bool complete() const {
    return self_ == tree_.root || have_ == total_;
  }
  const std::vector<std::int64_t>& received() const { return received_; }

 private:
  const BfsTree& tree_;
  NodeId self_;
  std::vector<std::int64_t> received_;
  std::vector<char> got_;  // index already taken
  std::deque<Message> forward_;
  std::size_t next_ = 0;   // root: next index to inject
  std::size_t have_ = 0;
  std::size_t total_ = static_cast<std::size_t>(-1);
};

/// --- Convergecast max ------------------------------------------------------

class ConvergeMaxProtocol final : public Protocol {
 public:
  ConvergeMaxProtocol(const BfsTree& tree, NodeId self, std::int64_t value)
      : tree_(tree), self_(self), best_(value), arg_(self),
        reported_(tree.children[self].size()) {}

  void send_phase(Context& ctx) override {
    if (owes_report()) {
      sent_ = true;
      ctx.send(tree_.parent[self_],
               Message(kConvMax, {best_, static_cast<std::int64_t>(arg_)}));
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kConvMax ||
          !first_from_child(tree_.children[self_], reported_, env.from)) {
        continue;
      }
      ++reports_;
      const std::int64_t v = env.msg.f[0];
      const auto id = static_cast<NodeId>(env.msg.f[1]);
      if (v > best_ || (v == best_ && id < arg_)) {
        best_ = v;
        arg_ = id;
      }
    }
  }

  // A node that owes its parent a report sends it next round; until then
  // the run must not end, or a report that a late delivery held back is
  // never sent.
  bool quiescent() const override { return !owes_report(); }

  Round next_send_round(Round now) const override {
    return owes_report() ? now + 1 : kNeverSends;
  }

  bool done() const {
    return self_ == tree_.root && reports_ == tree_.children[self_].size();
  }
  std::pair<std::int64_t, NodeId> best() const { return {best_, arg_}; }

 private:
  bool owes_report() const {
    return !sent_ && self_ != tree_.root && tree_.reached(self_) &&
           reports_ == tree_.children[self_].size();
  }

  const BfsTree& tree_;
  NodeId self_;
  std::int64_t best_;
  NodeId arg_;
  std::vector<char> reported_;  // per child, in tree_.children order
  std::size_t reports_ = 0;
  bool sent_ = false;
};

/// --- Gather to all ----------------------------------------------------------

class GatherProtocol final : public Protocol {
 public:
  GatherProtocol(const BfsTree& tree, NodeId self,
                 std::vector<GatherItem> own_items)
      : tree_(tree), self_(self), counted_(tree.children[self].size()) {
    // Leaves with no items must still tell the parent they are done; we use a
    // per-child "expected count" handshake instead: every node first reports
    // its subtree item count, then streams the items.
    for (const GatherItem& it : own_items) up_.push_back(it);
    own_count_ = own_items.size();
  }

  void send_phase(Context& ctx) override {
    maybe_report_count(ctx);
    // Stream items upward, one per round per link (pipelined).
    if (self_ != tree_.root && tree_.reached(self_) && streamed_ < up_.size()) {
      const GatherItem& it = up_[streamed_];
      ctx.send(tree_.parent[self_],
               Message(kGatherUp, {static_cast<std::int64_t>(it.origin), it.a,
                                   it.b}));
      ++streamed_;
    }
  }

  void receive_phase(Context& ctx) override {
    for (const Envelope& env : ctx.inbox()) {
      switch (env.msg.tag) {
        case kGatherDone: {  // child subtree count
          if (!first_from_child(tree_.children[self_], counted_, env.from)) {
            break;
          }
          ++count_reports_;
          expected_from_children_ += static_cast<std::size_t>(env.msg.f[0]);
          break;
        }
        case kGatherUp: {
          GatherItem it{static_cast<NodeId>(env.msg.f[0]), env.msg.f[1],
                        env.msg.f[2]};
          if (!from_children_.insert(it).second) break;
          up_.push_back(it);
          ++received_from_children_;
          break;
        }
        default:
          break;
      }
    }
  }

  bool quiescent() const override {
    if (self_ == tree_.root) return true;
    return streamed_ >= up_.size() &&
           (count_sent_ || !tree_.reached(self_));
  }

  Round next_send_round(Round now) const override {
    if (self_ == tree_.root || !tree_.reached(self_)) return kNeverSends;
    const bool count_due =
        !count_sent_ && count_reports_ >= tree_.children[self_].size();
    return (count_due || streamed_ < up_.size()) ? now + 1 : kNeverSends;
  }

  bool root_has_all() const {
    return count_reports_ == tree_.children[self_].size() &&
           received_from_children_ == expected_from_children_;
  }
  std::vector<GatherItem> take_items() { return std::move(up_); }

 private:
  void maybe_report_count(Context& ctx) {
    if (count_sent_ || self_ == tree_.root || !tree_.reached(self_)) return;
    if (count_reports_ < tree_.children[self_].size()) return;
    const std::size_t subtree = own_count_ + expected_from_children_;
    ctx.send(tree_.parent[self_],
             Message(kGatherDone, {static_cast<std::int64_t>(subtree)}));
    count_sent_ = true;
  }

  const BfsTree& tree_;
  NodeId self_;
  std::vector<GatherItem> up_;
  std::set<GatherItem> from_children_;  // items already taken from below
  std::vector<char> counted_;  // per child, in tree_.children order
  std::size_t own_count_ = 0;
  std::size_t streamed_ = 0;
  std::size_t count_reports_ = 0;
  std::size_t expected_from_children_ = 0;
  std::size_t received_from_children_ = 0;
  bool count_sent_ = false;
};

/// The engine options of one primitive run.  `cap` is the primitive's
/// round budget under synchronous delivery; a fault plan can deliver late
/// without losing anything, so under an enabled plan the run ends at
/// quiescence instead and the primitive's completeness check judges what
/// arrived.
EngineOptions run_options(Round cap, const RunEnv& env) {
  const bool faulty = env.faults != nullptr && env.faults->enabled();
  return {.max_rounds = faulty ? EngineOptions{}.max_rounds : cap, .env = env};
}

void accumulate(RunStats* into, const RunStats& phase) {
  if (into != nullptr) *into += phase;
}

}  // namespace

BfsTree build_bfs_tree(const Graph& g, NodeId root, RunStats* stats,
                       const RunEnv& env) {
  const NodeId n = g.node_count();
  const auto run = run_nodes(
      g, run_options(static_cast<Round>(n) + 2, env),
      [&](NodeId v) { return std::make_unique<BfsProtocol>(root, v); });
  accumulate(stats, run.stats);

  BfsTree tree;
  tree.root = root;
  tree.parent.resize(n);
  tree.depth.resize(n);
  tree.children.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const BfsProtocol& p = run.node(v);
    tree.parent[v] = p.parent();
    tree.depth[v] = p.joined() ? p.depth() : 0;
    std::vector<NodeId>& kids = tree.children[v];
    kids = p.children();
    std::sort(kids.begin(), kids.end());
    // A duplicated join names its child twice.
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    if (p.joined()) tree.height = std::max(tree.height, p.depth());
  }
  return tree;
}

std::vector<std::vector<std::int64_t>> broadcast_values(
    const Graph& g, const BfsTree& tree,
    const std::vector<std::int64_t>& values, RunStats* stats,
    const RunEnv& env) {
  const NodeId n = g.node_count();
  if (values.empty()) return std::vector<std::vector<std::int64_t>>(n);
  const auto run = run_nodes(
      g,
      run_options(static_cast<Round>(values.size()) + tree.height + 4, env),
      [&](NodeId v) {
        return std::make_unique<BroadcastProtocol>(
            tree, v, v == tree.root ? &values : nullptr);
      });
  accumulate(stats, run.stats);

  std::vector<std::vector<std::int64_t>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    const BroadcastProtocol& p = run.node(v);
    util::check(!tree.reached(v) || p.complete(),
                "broadcast_values: node missed values");
    out[v] = p.received();
  }
  return out;
}

std::pair<std::int64_t, NodeId> converge_max(
    const Graph& g, const BfsTree& tree,
    const std::vector<std::int64_t>& value_per_node, RunStats* stats,
    const RunEnv& env) {
  const auto run = run_nodes(
      g, run_options(static_cast<Round>(tree.height) + 4, env),
      [&](NodeId v) {
        return std::make_unique<ConvergeMaxProtocol>(tree, v,
                                                     value_per_node[v]);
      });
  accumulate(stats, run.stats);

  const ConvergeMaxProtocol& root = run.node(tree.root);
  util::check(root.done(), "converge_max: root missing child reports");
  return root.best();
}

std::vector<GatherItem> gather_to_all(
    const Graph& g, const BfsTree& tree,
    const std::vector<std::vector<GatherItem>>& items_per_node,
    RunStats* stats, const RunEnv& env) {
  std::size_t total = 0;
  for (const auto& items : items_per_node) total += items.size();
  const auto run = run_nodes(
      g,
      run_options(static_cast<Round>(total) + 2ULL * tree.height + 8, env),
      [&](NodeId v) {
        return std::make_unique<GatherProtocol>(tree, v, items_per_node[v]);
      });
  accumulate(stats, run.stats);

  GatherProtocol& root = run.node(tree.root);
  util::check(root.root_has_all(), "gather_to_all: root missing items");
  std::vector<GatherItem> all = root.take_items();
  std::sort(all.begin(), all.end());

  // Broadcast the gathered list back down (three int64 fields per item do
  // not fit the single-value broadcast, so pack origin/a/b as consecutive
  // values; still O(log n) bits per message).
  std::vector<std::int64_t> flat;
  flat.reserve(all.size() * 3);
  for (const GatherItem& it : all) {
    flat.push_back(static_cast<std::int64_t>(it.origin));
    flat.push_back(it.a);
    flat.push_back(it.b);
  }
  const auto copies = broadcast_values(g, tree, flat, stats, env);
  (void)copies;
  return all;
}

}  // namespace dapsp::congest
