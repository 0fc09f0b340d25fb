#include "core/pipelined_ssp.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "core/bounds.hpp"
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

constexpr std::uint32_t kTagEntry = 10;  // {x, d, l, nu, flag}

/// Run-wide read-only configuration shared by all node protocols.
struct SharedConfig {
  const Graph* g = nullptr;
  std::uint32_t h = 0;
  Weight delta = 0;
  GammaSq gamma;
  KappaKernel kernel;  // fast-path kappa arithmetic for this gamma
  ListPolicy policy = ListPolicy::kDominance;
  std::vector<NodeId> sources;
  std::vector<std::int32_t> source_index;  // node -> index in sources, or -1
};

/// One list entry Z (Table II of the paper).  The key is kept as flat
/// (d, l) fields so that an entry packs into 32 bytes; Z's flag-d* lives in
/// its record in the per-source index (SourceRec).
struct Entry {
  Weight d = 0;             // key (d, l)
  std::uint32_t l = 0;
  NodeId source = 0;        // x
  std::uint64_t ck = 0;     // cached ceil(kappa); send round = ck + pos
  /// Schedule value (ck + pos) at the last firing; 0 = never fired.  An
  /// entry is due when its current schedule is <= the round and differs
  /// from this value: list churn can move an entry to a position whose
  /// schedule already passed, and the literal "fire on equality" rule would
  /// silently drop it (observed on directed zero-weight graphs).
  std::uint64_t fired_sched = 0;

  Key key() const { return Key{d, l}; }
};
static_assert(sizeof(Entry) == 32);

/// An entry's record in its source's group of the per-source index: the
/// key again, plus flag-d*.
struct SourceRec {
  Weight d = 0;
  std::uint32_t l = 0;
  bool sp = false;

  Key key() const { return Key{d, l}; }
};
static_assert(sizeof(SourceRec) == 16);

class PipelinedProtocol final : public Protocol {
 public:
  PipelinedProtocol(const SharedConfig& cfg, NodeId self)
      : cfg_(cfg), self_(self) {
    const auto k = cfg.sources.size();
    best_d_.assign(k, kInfDist);
    best_l_.assign(k, 0);
    best_p_.assign(k, kNoNode);
    sends_per_source_.assign(k, 0);
    off_.assign(k + 1, 0);
    // Incoming arc weights keyed by sender (directed graphs: a neighbor may
    // be connected only by an outgoing arc, in which case its messages do
    // not extend any path into this node).
    for (const auto& e : cfg.g->in_edges(self)) {
      in_weight_.emplace_back(e.from, e.weight);
    }
    // in_edges is sorted by (from); keep the min-weight arc per sender.
    in_weight_.erase(
        std::unique(in_weight_.begin(), in_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        in_weight_.end());
  }

  void init(Context& /*ctx*/) override {
    const std::int32_t idx = cfg_.source_index[self_];
    if (idx >= 0) {
      const auto si = static_cast<std::size_t>(idx);
      best_d_[si] = 0;
      best_l_[si] = 0;
      best_p_[si] = kNoNode;
      list_.push_back(
          Entry{0, 0, self_, cfg_.kernel.ceil_kappa(Key{0, 0}), 0});
      insert_rec(si, 0, SourceRec{0, 0, true});
    }
  }

  bool quiescent() const override {
    if (list_.empty()) return true;
    // Future work pending?  The last entry holds the max schedule.
    if (list_.back().ck + list_.size() > last_round_seen_) return false;
    // Past-due but unfired entries still owe a send.
    for (std::size_t i = scan_floor_; i < list_.size(); ++i) {
      if (list_[i].fired_sched != list_[i].ck + i + 1) return false;
    }
    return true;
  }

  /// Sparse-engine hint: the schedule of the first entry send_phase would
  /// fire (schedules ck_i + (i+1) increase strictly along the list, so the
  /// first unsettled entry at or past scan_floor_ is the next to act; if its
  /// schedule already passed -- list churn moved it -- it fires next round).
  Round next_send_round(Round now) const override {
    for (std::size_t i = scan_floor_; i < list_.size(); ++i) {
      const std::uint64_t sched = list_[i].ck + i + 1;
      if (list_[i].fired_sched != sched) {
        return sched <= now ? now + 1 : static_cast<Round>(sched);
      }
    }
    return kNeverSends;
  }

  // --- results ---
  const std::vector<Weight>& best_d() const { return best_d_; }
  const std::vector<std::uint32_t>& best_l() const { return best_l_; }
  const std::vector<NodeId>& best_p() const { return best_p_; }
  Round settle_round() const { return settle_round_; }
  std::uint64_t max_entries_per_source() const { return max_per_source_; }
  std::uint64_t max_list_size() const { return max_list_; }
  std::uint64_t late_fires() const { return late_fires_; }
  std::uint64_t sends() const { return sends_; }
  /// Max messages this node emitted for any single source (the per-source
  /// congestion Algorithm 1 keeps low: at most the per-source list
  /// occupancy plus schedule-shift refires).
  std::uint64_t max_sends_one_source() const {
    std::uint64_t m = 0;
    for (const auto c : sends_per_source_) m = std::max(m, c);
    return m;
  }

  void send_phase(Context& ctx) override {
    last_round_seen_ = ctx.round();
    const Round r = ctx.round();
    // Schedules ck_i + (i+1) increase strictly along the list, so entries
    // with schedule <= r form a prefix.  Fire the first due entry (schedule
    // reached and not already fired at this exact schedule); scan_floor_
    // skips the settled part of the prefix and resets on list mutation.
    std::size_t i = scan_floor_;
    while (i < list_.size()) {
      const std::uint64_t sched = list_[i].ck + i + 1;
      if (sched > r) break;
      if (list_[i].fired_sched != sched) {
        if (sched < r) ++late_fires_;
        fire(ctx, i, sched);
        return;
      }
      scan_floor_ = ++i;
    }
  }

  void fire(Context& ctx, std::size_t idx, std::uint64_t sched) {
    Entry& z = list_[idx];
    z.fired_sched = sched;
    const auto si = static_cast<std::size_t>(cfg_.source_index[z.source]);
    ++sends_per_source_[si];
    // Z.nu: entries for Z's source at or below Z, i.e. Z's rank in its group.
    const std::size_t rank = group_rank(idx, si);
    const bool sp = recs_[off_[si] + rank].sp;
    ctx.broadcast(Message(kTagEntry, {static_cast<std::int64_t>(z.source),
                                      z.d, z.l,
                                      static_cast<std::int64_t>(rank + 1),
                                      sp ? 1 : 0}));
    ++sends_;
  }

  void receive_phase(Context& ctx) override {
    // One pass in arrival order.  Every rule below concerns only entries
    // for the arriving entry's own source, so each one reads that source's
    // group of the index, never the whole list; ceil(kappa) is computed
    // only for an entry that is inserted (insert_entry).
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagEntry) continue;
      const auto w = arc_weight_from(env.from);
      if (!w) continue;  // no directed arc sender -> self
      const auto x = static_cast<NodeId>(env.msg.f[0]);
      const std::int32_t sidx = cfg_.source_index[x];
      if (sidx < 0) continue;
      const Key key{env.msg.f[1] + *w,
                    static_cast<std::uint32_t>(env.msg.f[2]) + 1};
      if (key.l > cfg_.h) continue;  // hop budget exhausted
      const auto si = static_cast<std::size_t>(sidx);
      if (key.d == best_d_[si] && key.l == best_l_[si] &&
          env.from < best_p_[si]) {
        // Step 9's parent tie-break: same (d, l) as the current SP entry,
        // smaller sender id.  Only the parent changes; the list already
        // holds this key.
        best_p_[si] = env.from;
        settle_round_ = ctx.round();
        continue;
      }
      // An entry dominated by existing information (some entry with both
      // distance and hops no worse) can never improve any downstream h-hop
      // distance; dropping it is always delivery-safe and keeps duplicate
      // churn from evicting hop-efficient entries.
      if (cfg_.policy == ListPolicy::kDominance && dominated(si, key)) {
        continue;
      }
      const bool better =
          key.d < best_d_[si] || (key.d == best_d_[si] && key.l < best_l_[si]);
      if (better) {
        best_d_[si] = key.d;
        best_l_[si] = key.l;
        best_p_[si] = env.from;
        settle_round_ = ctx.round();
        // Z becomes the only SP entry for its source.  The old one keeps
        // its flag through INSERT's removal step (DESIGN.md note 2).
        const std::size_t at = insert_entry(key, x, si, /*sp=*/true);
        for (SourceRec& r : group(si)) r.sp = false;
        recs_[off_[si] + at].sp = true;
      } else {
        // Step 13: insert the non-SP entry only if fewer than nu entries for
        // x have key <= Z's key (Observation II.4's accounting; the counts
        // are load-bearing for Lemma II.6's position argument).  The literal
        // policy compares with strict <, as printed in the paper.
        std::uint64_t gate_count = 0;
        for (const SourceRec& r : group(si)) {
          const int c = cfg_.kernel.compare(r.key(), key);
          if (c < 0 || (c == 0 && cfg_.policy == ListPolicy::kDominance)) {
            ++gate_count;
          }
        }
        if (gate_count < static_cast<std::uint64_t>(env.msg.f[3])) {
          insert_entry(key, x, si, /*sp=*/false);
        }
      }
    }
  }

 private:
  std::optional<Weight> arc_weight_from(NodeId y) const {
    const auto it = std::lower_bound(
        in_weight_.begin(), in_weight_.end(), y,
        [](const auto& p, NodeId v) { return p.first < v; });
    if (it == in_weight_.end() || it->first != y) return std::nullopt;
    return it->second;
  }

  /// Source si's records, in list order.
  std::span<SourceRec> group(std::size_t si) {
    return {recs_.data() + off_[si], off_[si + 1] - off_[si]};
  }
  std::span<const SourceRec> group(std::size_t si) const {
    return {recs_.data() + off_[si], off_[si + 1] - off_[si]};
  }

  /// Places r at offset g of source si's group.
  void insert_rec(std::size_t si, std::size_t g, const SourceRec& r) {
    recs_.insert(recs_.begin() + static_cast<std::ptrdiff_t>(off_[si] + g), r);
    for (std::size_t j = si + 1; j < off_.size(); ++j) ++off_[j];
  }

  /// Offset of list_[idx] in its group (si).  The records before it are the
  /// ones that precede it in list order; entries with an identical key (the
  /// literal policy admits such twins) sit next to each other in the list
  /// and in the group, so the list neighbours tell them apart.
  std::size_t group_rank(std::size_t idx, std::size_t si) const {
    const Entry& z = list_[idx];
    const std::span<const SourceRec> grp = group(si);
    std::size_t rank = 0;
    while (grp[rank].d != z.d || grp[rank].l != z.l) ++rank;
    for (std::size_t i = idx; i > 0; --i) {
      const Entry& e = list_[i - 1];
      if (e.source != z.source || e.d != z.d || e.l != z.l) break;
      ++rank;
    }
    return rank;
  }

  /// True if some listed entry for source si matches or beats `key` in
  /// both distance and hops.
  bool dominated(std::size_t si, const Key& key) const {
    const std::span<const SourceRec> grp = group(si);
    return std::any_of(grp.begin(), grp.end(), [&](const SourceRec& r) {
      return r.d <= key.d && r.l <= key.l;
    });
  }

  /// INSERT procedure for Z = (key, x) of source si; returns the offset of
  /// Z's record in its group (stable under the removal step, which only
  /// drops records above it).
  ///
  /// Deviation from the conference listing (documented in DESIGN.md): the
  /// removal step drops entries for x that Z *dominates* (distance and hops
  /// both no better) rather than unconditionally the closest non-SP entry
  /// above Z.  Unconditional removal can evict a dethroned SP entry whose
  /// fewer-hops path is the only way some h-hop shortest distance reaches a
  /// later node; dominance-based removal is delivery-safe by construction
  /// and the Lemma II.14 round bound is asserted by tests/benches instead.
  std::size_t insert_entry(const Key& key, NodeId x, std::size_t si,
                           bool sp) {
    const Entry z{key.d, key.l, x, cfg_.kernel.ceil_kappa(key), 0};
    // Position by (kappa, d, x); Z lands before any entry equal to it.
    // ceil is monotone, so a smaller cached ceil(kappa) already means a
    // smaller kappa; only equal ceilings need the exact order.
    const auto less = [&](const Key& a, NodeId xa, const Key& b, NodeId xb) {
      return list_order(a, xa, b, xb, cfg_.kernel) < 0;
    };
    auto it = std::lower_bound(
        list_.begin(), list_.end(), z, [&](const Entry& a, const Entry& b) {
          if (a.ck != b.ck) return a.ck < b.ck;
          return less(a.key(), a.source, b.key(), b.source);
        });
    it = list_.insert(it, z);
    const auto pos = static_cast<std::size_t>(it - list_.begin());
    scan_floor_ = std::min(scan_floor_, pos);

    // Z's record goes to the same place in its group: after the records of
    // the same-source entries below pos, which are those ordered before Z.
    const std::span<const SourceRec> grp = group(si);
    const auto g = static_cast<std::size_t>(
        std::partition_point(grp.begin(), grp.end(),
                             [&](const SourceRec& r) {
                               return less(r.key(), z.source, z.key(),
                                           z.source);
                             }) -
        grp.begin());
    insert_rec(si, g, SourceRec{z.d, z.l, sp});
    remove_above(z, si, g, pos);

    max_list_ = std::max(max_list_, static_cast<std::uint64_t>(list_.size()));
    max_per_source_ =
        std::max(max_per_source_, std::uint64_t{off_[si + 1] - off_[si]});
    return g;
  }

  /// INSERT's removal step for Z (record g of group si, list position pos).
  /// kDominance removes every non-SP entry for x that Z dominates (all sit
  /// at or above Z's key, so positions below Z are untouched); kLiteral
  /// (INSERT steps 2-4) removes the closest non-SP entry for x above Z,
  /// whatever it holds.  The group decides; the list and the group then
  /// drop the chosen entries in one compaction pass, whose same-source
  /// entries above pos match the group's records above g one for one.
  void remove_above(const Entry& z, std::size_t si, std::size_t g,
                    std::size_t pos) {
    const bool literal = cfg_.policy == ListPolicy::kLiteral;
    const std::span<SourceRec> grp = group(si);
    const auto drops = [&](const SourceRec& r) {
      return !r.sp && (literal || (z.d <= r.d && z.l <= r.l));
    };
    std::size_t first = g + 1;
    while (first < grp.size() && !drops(grp[first])) ++first;
    if (first == grp.size()) return;

    // Skip to the list entry of record `first`, then compact the list and
    // the group together from there.
    std::size_t i = pos + 1;
    for (std::size_t r = g + 1;; ++i) {
      if (list_[i].source == z.source && r++ == first) break;
    }
    std::size_t w = i;       // list write cursor
    std::size_t wr = first;  // group write cursor
    for (std::size_t r = first; r < grp.size(); ++i) {
      if (list_[i].source == z.source) {
        const bool drop = literal ? r == first : drops(grp[r]);
        if (drop) {
          ++r;
          continue;
        }
        grp[wr++] = grp[r++];
      }
      list_[w++] = list_[i];
    }
    list_.erase(std::move(list_.begin() + static_cast<std::ptrdiff_t>(i),
                          list_.end(),
                          list_.begin() + static_cast<std::ptrdiff_t>(w)),
                list_.end());
    const std::size_t removed = grp.size() - wr;
    const auto gbegin = recs_.begin() + static_cast<std::ptrdiff_t>(off_[si]);
    recs_.erase(gbegin + static_cast<std::ptrdiff_t>(wr),
                gbegin + static_cast<std::ptrdiff_t>(grp.size()));
    for (std::size_t j = si + 1; j < off_.size(); ++j) {
      off_[j] -= static_cast<std::uint32_t>(removed);
    }
  }

  const SharedConfig& cfg_;
  NodeId self_;
  /// The kappa-sorted list; an entry's position is its send schedule.
  std::vector<Entry> list_;
  /// Per-source index over list_: source i's entries are recs_[off_[i],
  /// off_[i+1]), in list order.  Lemma II.11 caps a group at h/gamma + 1
  /// entries while the list holds all k sources.
  std::vector<SourceRec> recs_;
  std::vector<std::uint32_t> off_;      // k+1 group offsets into recs_
  std::vector<std::pair<NodeId, Weight>> in_weight_;  // sorted by sender
  std::vector<Weight> best_d_;
  std::vector<std::uint32_t> best_l_;
  std::vector<NodeId> best_p_;
  Round settle_round_ = 0;
  Round last_round_seen_ = 0;
  std::size_t scan_floor_ = 0;
  std::uint64_t max_per_source_ = 0;
  std::uint64_t max_list_ = 0;
  std::uint64_t late_fires_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<std::uint64_t> sends_per_source_;
};

}  // namespace

void PipelinedParams::finalize(const Graph& g) {
  util::check(!sources.empty(), "PipelinedParams: need at least one source");
  util::check(h >= 1, "PipelinedParams: need h >= 1");
  util::check(delta >= 0, "PipelinedParams: delta must be non-negative");
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  util::check(sources.back() < g.node_count(),
              "PipelinedParams: source id out of range");
  if (gamma.num == 0 && gamma.den == 0) {
    gamma = GammaSq::paper(sources.size(), h,
                           static_cast<std::uint64_t>(delta));
  }
}

KsspResult pipelined_kssp(const Graph& g, PipelinedParams params) {
  params.finalize(g);
  const NodeId n = g.node_count();
  const std::uint64_t k = params.sources.size();

  SharedConfig cfg;
  cfg.g = &g;
  cfg.h = params.h;
  cfg.delta = params.delta;
  cfg.gamma = params.gamma;
  cfg.kernel = KappaKernel(cfg.gamma);
  cfg.policy = params.policy;
  cfg.sources = params.sources;
  cfg.source_index.assign(n, -1);
  for (std::size_t i = 0; i < cfg.sources.size(); ++i) {
    cfg.source_index[cfg.sources[i]] = static_cast<std::int32_t>(i);
  }

  const std::uint64_t bound = bounds::hk_ssp_custom_gamma(
      params.h, k, static_cast<std::uint64_t>(params.delta), params.gamma);

  const EngineOptions opt{.max_rounds = bound,
                          .record_per_round = params.record_per_round,
                          .scramble_inbox = params.scramble_inbox,
                          .env = params.env};
  const auto run = run_nodes(g, opt, [&](NodeId v) {
    return std::make_unique<PipelinedProtocol>(cfg, v);
  });

  KsspResult res;
  res.stats = run.stats;
  res.sources = cfg.sources;
  res.theoretical_bound = bound;
  res.dist.assign(k, std::vector<Weight>(n, kInfDist));
  res.hops.assign(k, std::vector<std::uint32_t>(n, 0));
  res.parent.assign(k, std::vector<NodeId>(n, kNoNode));
  for (NodeId v = 0; v < n; ++v) {
    const PipelinedProtocol& p = run.node(v);
    for (std::size_t i = 0; i < k; ++i) {
      res.dist[i][v] = p.best_d()[i];
      res.hops[i][v] = p.best_l()[i];
      res.parent[i][v] = p.best_p()[i];
    }
    res.max_entries_per_source =
        std::max(res.max_entries_per_source, p.max_entries_per_source());
    res.max_list_size = std::max(res.max_list_size, p.max_list_size());
    res.settle_round = std::max(res.settle_round, p.settle_round());
    res.late_fires += p.late_fires();
    res.total_sends += p.sends();
    res.max_sends_per_source =
        std::max(res.max_sends_per_source, p.max_sends_one_source());
  }
  return res;
}

KsspResult pipelined_apsp(const Graph& g, Weight delta,
                          const congest::RunEnv& env) {
  std::vector<NodeId> all(g.node_count());
  std::iota(all.begin(), all.end(), NodeId{0});
  return pipelined_kssp_full(g, std::move(all), delta, env);
}

KsspResult pipelined_kssp_full(const Graph& g, std::vector<NodeId> sources,
                               Weight delta, const congest::RunEnv& env) {
  PipelinedParams params;
  params.sources = std::move(sources);
  params.h = g.node_count() > 1 ? g.node_count() - 1 : 1;
  params.delta = delta;
  params.env = env;
  return pipelined_kssp(g, std::move(params));
}

}  // namespace dapsp::core
