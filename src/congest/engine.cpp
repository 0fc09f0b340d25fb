#include "congest/engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "congest/faults.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::congest {

using graph::Graph;
using graph::NodeId;

namespace {

// The perfbench shim (see Engine::set_force_threads).  A plain static: it is
// latched in the Engine constructor and set before any engine is built.
std::size_t g_force_threads = Engine::kNoThreadOverride;

using Clock = std::chrono::steady_clock;

/// Seed of the per-(receiver, round) inbox permutation (scramble_inbox).
constexpr std::uint64_t kScrambleSeed = 0x5eed;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// Min-heap helpers over (wake round, node).
struct WakeGreater {
  bool operator()(const std::pair<Round, NodeId>& a,
                  const std::pair<Round, NodeId>& b) const {
    return a.first > b.first || (a.first == b.first && a.second > b.second);
  }
};

}  // namespace

void Engine::set_force_threads(std::size_t threads) noexcept {
  g_force_threads = threads;
}

// --- NodeContext -----------------------------------------------------------

NodeId NodeContext::node_count() const noexcept {
  return engine_->graph().node_count();
}

std::span<const NodeId> NodeContext::neighbors() const noexcept {
  return engine_->graph().comm_neighbors(self_);
}

void NodeContext::send(NodeId to, const Message& m) {
  if (!may_send_) {
    throw std::logic_error("Context::send: sending in receive_phase");
  }
  if (to != last_to_) {
    last_slot_ = engine_->link_slot(self_, to);  // throws on non-neighbor
    last_to_ = to;
  }
  engine_->enqueue(self_, last_slot_, m);
}

void NodeContext::broadcast(const Message& m) {
  if (!may_send_) {
    throw std::logic_error("Context::broadcast: sending in receive_phase");
  }
  const auto deg = engine_->graph().comm_degree(self_);
  const std::size_t base = engine_->link_base(self_);
  for (std::size_t j = 0; j < deg; ++j) engine_->enqueue(self_, base + j, m);
}

// --- Engine ----------------------------------------------------------------

void Engine::enqueue(NodeId from, std::size_t slot, const Message& m) {
  Outbox& ob = out_[from];
  // Only this sender's own worker writes its mark byte; the pool join
  // publishes it before deliver() scans the array.
  sent_mark_[from] = 1;
  if (link_cnt_[slot]++ == 0) {
    ob.touched.push_back(static_cast<std::uint32_t>(slot));
  }
  ob.slots.push_back(static_cast<std::uint32_t>(slot));
  ob.msgs.push_back(m);
}

Engine::Engine(const Graph& g, std::vector<std::unique_ptr<Protocol>> protocols,
               EngineOptions options)
    : graph_(g), protocols_(std::move(protocols)), options_(options) {
  util::check(protocols_.size() == g.node_count(),
              "Engine: need one protocol per node");
  const RunEnv& env = options_.env;
  dense_ = env.dense;
  recorder_ = env.recorder;
  const NodeId n = g.node_count();

  // Resolve the pool exactly once, here, instead of lazily re-checking on
  // every phase call.
  pool_ = &util::run_pool(
      g_force_threads != kNoThreadOverride ? g_force_threads : env.threads,
      env.pin, own_pool_);

  link_base_.resize(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    link_base_[v + 1] = link_base_[v] + g.comm_degree(v);
  }
  const std::size_t links = link_base_[n];
  link_target_.resize(links);
  link_cnt_.assign(links, 0);
  link_lifetime_count_.assign(links, 0);
  out_.resize(n);
  all_nodes_.resize(n);
  std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  sent_mark_.assign(n, 0);
  inbox_.resize(n);
  inbox_mark_.assign(n, 0);

  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.comm_neighbors(u);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      link_target_[link_base_[u] + j] = nbrs[j];
    }
  }

  if (env.faults != nullptr && env.faults->enabled()) {
    std::vector<NodeId> link_from(links);
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t s = link_base_[u]; s < link_base_[u + 1]; ++s) {
        link_from[s] = u;
      }
    }
    faults_ = std::make_unique<FaultPlane>(*env.faults, n,
                                           std::move(link_from), link_target_);
  }

  if (!dense_) {
    wake_round_.assign(n, 0);
    in_next_.assign(n, 0);
    active_next_.reserve(n);
  }
  track_quiet_ = faults_ == nullptr;
  if (track_quiet_) {
    // Nothing is known quiescent before round 0, whose refresh covers
    // every node.
    quiet_.assign(n, 0);
    nonquiet_ = n;
  }
  contexts_.reserve(n);
  for (NodeId v = 0; v < n; ++v) contexts_.emplace_back(*this, v);

  profile_ = recorder_ != nullptr && recorder_->records_work_items();
  if (profile_) {
    node_ns_.assign(n, 0);
    node_ns_round_.assign(n, 0);
    last_item_round_.assign(n, 0);
  }

  if (recorder_ != nullptr) {
    recorder_->begin_run(dense_ ? "engine(dense)" : "engine(sparse)", n,
                         links);
  }
}

Engine::~Engine() = default;

std::size_t Engine::link_slot(NodeId from, NodeId to) const {
  const auto nbrs = graph_.comm_neighbors(from);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  if (it == nbrs.end() || *it != to) {
    throw std::logic_error("Context::send: target is not a neighbor");
  }
  return link_base_[from] + static_cast<std::size_t>(it - nbrs.begin());
}

bool Engine::all_quiescent() const {
  if (track_quiet_) return nonquiet_ == 0;
  if (faults_ != nullptr && faults_->plan().has_crashes()) {
    // A crashed node that never revives can never act again; waiting on its
    // quiescent() would spin the run to max_rounds.  A node that will revive
    // keeps its say.
    for (NodeId v = 0; v < graph_.node_count(); ++v) {
      if (faults_->down_forever(v, round_)) continue;
      if (!protocols_[v]->quiescent()) return false;
    }
    return true;
  }
  return std::all_of(protocols_.begin(), protocols_.end(),
                     [](const auto& p) { return p->quiescent(); });
}

void Engine::refresh_quiescence(std::span<const NodeId> nodes) {
  for (const NodeId v : nodes) {
    const std::uint8_t q = protocols_[v]->quiescent() ? 1 : 0;
    if (q != quiet_[v]) {
      quiet_[v] = q;
      nonquiet_ += q ? std::uint64_t(-1) : std::uint64_t(1);
    }
  }
}

std::size_t Engine::plane_capacity_bytes() const {
  std::size_t bytes = 0;
  for (const Outbox& ob : out_) {
    bytes += (ob.slots.capacity() + ob.touched.capacity()) *
                 sizeof(std::uint32_t) +
             ob.msgs.capacity() * sizeof(Message);
  }
  for (const auto& in : inbox_) bytes += in.capacity() * sizeof(Envelope);
  bytes += touched_senders_.capacity() * sizeof(NodeId) +
           receivers_.capacity() * sizeof(NodeId) +
           sent_counts_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(std::pair<Round, NodeId>) +
           active_next_.capacity() * sizeof(NodeId) +
           active_now_.capacity() * sizeof(NodeId) +
           link_scratch_.capacity() *
               sizeof(std::pair<std::uint64_t, std::uint32_t>);
  return bytes;
}

// --- sparse scheduler ------------------------------------------------------

void Engine::schedule(NodeId v, Round wake) {
  // One live wake per node: the wake a node already holds is queued (on
  // the heap or active_next_), so a re-hint of it would only add a stale
  // duplicate for build_active_set to pop.
  if (wake_round_[v] == wake) return;
  wake_round_[v] = wake;
  if (wake == Protocol::kNeverSends) return;
  if (wake <= round_ + 1) {
    if (!in_next_[v]) {
      in_next_[v] = 1;
      active_next_.push_back(v);
    }
  } else {
    heap_.emplace_back(wake, v);
    std::push_heap(heap_.begin(), heap_.end(), WakeGreater{});
  }
}

void Engine::reschedule_after_phase(std::span<const NodeId> nodes) {
  for (const NodeId v : nodes) {
    if (faults_ != nullptr && faults_->node_down(v, round_)) {
      // Park the node's wake at its revive round (kNever == kNeverSends, so
      // a permanent crash simply never re-enters the schedule).
      schedule(v, faults_->revive_round(v));
      continue;
    }
    schedule(v, protocols_[v]->next_send_round(round_));
  }
}

/// Builds active_now_ for the (already incremented) round_: the swapped-in
/// next-round list plus every heap entry now due.  Activation consumes the
/// node's wake (set to the 0 sentinel) so stale heap duplicates are dropped.
void Engine::build_active_set() {
  active_now_.clear();
  for (const NodeId v : active_next_) {
    in_next_[v] = 0;
    if (wake_round_[v] != 0 && wake_round_[v] <= round_) {
      wake_round_[v] = 0;
      active_now_.push_back(v);
    }
  }
  active_next_.clear();
  while (!heap_.empty() && heap_.front().first <= round_) {
    const auto [wake, v] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), WakeGreater{});
    heap_.pop_back();
    if (wake_round_[v] == wake) {
      wake_round_[v] = 0;
      active_now_.push_back(v);
    }
  }
}

/// Earliest live heap wake, discarding stale entries; kNeverSends if none.
Round Engine::next_heap_wake() {
  while (!heap_.empty()) {
    const auto [wake, v] = heap_.front();
    if (wake_round_[v] == wake) return wake;
    std::pop_heap(heap_.begin(), heap_.end(), WakeGreater{});
    heap_.pop_back();
  }
  return Protocol::kNeverSends;
}

/// Accounts `count` provably silent rounds without executing them: the
/// counter, per-round zeros, and the skipped-round stat advance exactly as
/// if the dense engine had run them and observed no messages.
void Engine::skip_silent_rounds(Round count) {
  const Round first = round_ + 1;
  round_ += count;
  stats_.rounds = round_;
  stats_.skipped_rounds += count;
  round_messages_ = 0;
  stats_.round_messages_hist.record_n(0, count);
  if (options_.record_per_round) {
    stats_.per_round_messages.resize(stats_.per_round_messages.size() + count,
                                     0);
  }
  if (recorder_ != nullptr) recorder_->record_gap(first, count);
}

// --- work-item recording (critical-path profiler feed) ---------------------

void Engine::profile_node(NodeId v, std::uint64_t ns) noexcept {
  if (node_ns_round_[v] != round_ + 1) {
    node_ns_round_[v] = round_ + 1;
    node_ns_[v] = ns;
  } else {
    node_ns_[v] += ns;
  }
}

void Engine::record_work_items() {
  // Items go out in node-id order: merge the (sorted) sender list --
  // msgs_out comes from sent_counts_, parallel to it -- with a sorted copy
  // of the receiver list.  Both sets are identical for sparse/dense and
  // every thread count, so the item stream is too.
  profile_receivers_.assign(receivers_.begin(), receivers_.end());
  std::sort(profile_receivers_.begin(), profile_receivers_.end());
  std::size_t si = 0;
  std::size_t ri = 0;
  while (si < touched_senders_.size() || ri < profile_receivers_.size()) {
    NodeId v;
    std::uint32_t msgs_out = 0;
    bool received = false;
    if (si < touched_senders_.size() &&
        (ri >= profile_receivers_.size() ||
         touched_senders_[si] <= profile_receivers_[ri])) {
      v = touched_senders_[si];
      msgs_out = sent_counts_[si];
      if (ri < profile_receivers_.size() && profile_receivers_[ri] == v) {
        received = true;
        ++ri;
      }
      ++si;
    } else {
      v = profile_receivers_[ri++];
      received = true;
    }
    obs::WorkItem& it = recorder_->work_item_slot();
    it.round = round_;
    it.node = v;
    it.msgs_out = msgs_out;
    if (received) {
      const auto& in = inbox_[v];
      it.msgs_in = static_cast<std::uint32_t>(in.size());
      // Wake edge: the max-lag arrival, ties by smallest sender.  Without
      // faults every arrival was sent this round (lag 0), so this is the
      // smallest sender id -- independent of delivery/scramble order.
      // Under faults the true send round of a delayed frame is unknown at
      // delivery; the delivery round is the documented approximation.
      NodeId wake = in[0].from;
      for (const Envelope& e : in) wake = std::min(wake, e.from);
      it.wake_from = wake;
      it.wake_round = round_;
    }
    it.compute_ns = node_ns_round_[v] == round_ + 1 ? node_ns_[v] : 0;
    it.prev_round = last_item_round_[v] == 0 ? obs::WorkItem::kNoRound
                                             : last_item_round_[v] - 1;
    last_item_round_[v] = round_ + 1;
  }
}

// --- delivery --------------------------------------------------------------

void Engine::scramble_inbox(NodeId v) {
  auto& in = inbox_[v];
  if (in.size() <= 1) return;
  util::Xoshiro256 rng(kScrambleSeed ^ (v * 0x9e3779b9ULL) ^ (round_ << 20));
  for (std::size_t i = in.size(); i > 1; --i) {
    std::swap(in[i - 1], in[rng.below(i)]);
  }
}

Engine::ClockTp Engine::deliver(std::span<const NodeId> senders, ClockTp t0) {
  // 0. Deferred inbox clearing: only the previous round's receivers hold
  // envelopes (see the invariant at inbox_'s declaration), so clearing that
  // list restores the all-empty state without touching the other n inboxes.
  // The fault plane clears on first touch in release() instead, and its
  // receive loops never read untouched inboxes.
  if (faults_ == nullptr) {
    for (const NodeId v : receivers_) inbox_[v].clear();
  }

  // 1. Collect this round's senders from the send set's mark bytes (no
  // outbox-struct probing).  Every node in id order yields ascending order;
  // a sparse set is in wake order, so it is sorted, and accounting, tracing
  // and lifetime updates happen in the dense engine's order regardless of
  // how the active set was assembled.
  touched_senders_.clear();
  for (const NodeId v : senders) {
    if (sent_mark_[v]) touched_senders_.push_back(v);
  }
  if (senders.data() != all_nodes_.data()) {
    std::sort(touched_senders_.begin(), touched_senders_.end());
  }

  // 2. One walk over the senders' logs, ascending, accounts every link and
  // message straight into stats_ and delivers each message in send order:
  // appended to its link's receiver's inbox, or admitted to the fault
  // plane.  A receiver has one link per sender, so every inbox comes out in
  // (sender id, send order) order, and each link's messages reach the fault
  // plane in send order, which keys their fate draws.  Every inbox starts
  // the walk empty (the deferred-clear invariant), so an empty one marks a
  // new receiver, and the dense oracle's exhaustive receive loop reads
  // empty spans for all the others.
  round_messages_ = 0;
  std::uint64_t max_cong = 0;
  std::uint64_t bytes = 0;
  std::uint32_t max_fields = 0;
  sent_counts_.clear();
  receivers_.clear();
  if (faults_ != nullptr) faults_->begin_round();
  for (const NodeId sender : touched_senders_) {
    const Outbox& ob = out_[sender];
    for (const std::uint32_t s : ob.touched) {
      const std::uint64_t c = link_cnt_[s];
      max_cong = std::max(max_cong, c);
      link_lifetime_count_[s] += c;
      stats_.max_link_total =
          std::max(stats_.max_link_total, link_lifetime_count_[s]);
    }
    round_messages_ += ob.msgs.size();
    sent_counts_.push_back(static_cast<std::uint32_t>(ob.msgs.size()));
    for (std::size_t j = 0; j < ob.msgs.size(); ++j) {
      const Message& m = ob.msgs[j];
      bytes += 8 * (1 + std::uint64_t{m.used});  // CONGEST wire size
      max_fields = std::max(max_fields, m.used);
      if (faults_ != nullptr) {
        faults_->admit(round_, ob.slots[j], m);
        continue;
      }
      const NodeId u = link_target_[ob.slots[j]];
      auto& in = inbox_[u];
      if (in.empty()) receivers_.push_back(u);
      in.push_back(Envelope{sender, m});
    }
  }
  stats_.message_bytes += bytes;
  stats_.max_message_fields = std::max(stats_.max_message_fields, max_fields);
  if (round_messages_ > 0) {
    stats_.total_messages += round_messages_;
    stats_.last_message_round = round_;
    if (max_cong > stats_.max_link_congestion) {
      stats_.max_link_congestion = max_cong;
      stats_.max_congestion_round = round_;
    }
  }
  stats_.round_messages_hist.record(round_messages_);
  if (options_.record_per_round) {
    stats_.per_round_messages.push_back(round_messages_);
  }
  if (trace_event_ != nullptr) {
    trace_event_->messages = round_messages_;
    trace_event_->senders =
        static_cast<std::uint32_t>(touched_senders_.size());
    trace_event_->max_link_congestion = max_cong;
    const std::size_t k = recorder_->top_k();
    if (k > 0 && !touched_senders_.empty()) {
      // Top-K most loaded links this round, ties broken by link slot so the
      // leaderboard is deterministic.
      link_scratch_.clear();
      for (const NodeId sender : touched_senders_) {
        for (const std::uint32_t slot : out_[sender].touched) {
          link_scratch_.emplace_back(link_cnt_[slot], slot);
        }
      }
      const auto heavier = [](const auto& a, const auto& b) {
        return a.first > b.first || (a.first == b.first && a.second < b.second);
      };
      if (link_scratch_.size() > k) {
        const auto kth =
            link_scratch_.begin() + static_cast<std::ptrdiff_t>(k);
        std::nth_element(link_scratch_.begin(), kth, link_scratch_.end(),
                         heavier);
        link_scratch_.resize(k);
      }
      std::sort(link_scratch_.begin(), link_scratch_.end(), heavier);
      for (const auto& [cnt, slot] : link_scratch_) {
        // Recover the sender from the slot via link_base_ (slots partition
        // by sender, ascending).
        const auto it = std::upper_bound(link_base_.begin(), link_base_.end(),
                                         static_cast<std::size_t>(slot));
        const auto from =
            static_cast<NodeId>(it - link_base_.begin() - 1);
        trace_event_->top_links.push_back(
            {from, link_target_[slot], cnt});
      }
    }
  }

  // 3. Under faults, release() fills the inboxes from whatever the fault
  // plane holds due this round.  Both schedules and every thread count
  // funnel through this single-threaded path, so all see identical faults.
  if (faults_ != nullptr) {
    faults_->release(round_, inbox_, inbox_mark_, receivers_);
    for (const NodeId u : receivers_) inbox_mark_[u] = 0;
    stats_.faults += faults_->round_stats();
  }
  if (options_.scramble_inbox) {
    for (const NodeId v : receivers_) scramble_inbox(v);
  }

  // 4. Retire outboxes (capacity kept -- steady-state rounds allocate
  // nothing).
  for (const NodeId sender : touched_senders_) {
    Outbox& ob = out_[sender];
    for (const std::uint32_t slot : ob.touched) link_cnt_[slot] = 0;
    ob.slots.clear();
    ob.msgs.clear();
    ob.touched.clear();
    sent_mark_[sender] = 0;
  }
  const auto t1 = Clock::now();
  const double dt = seconds_between(t0, t1);
  stats_.deliver_seconds += dt;
  stats_.deliver_ns_hist.record(to_ns(dt));
  if (trace_event_ != nullptr) {
    trace_event_->deliver_s = dt;
    trace_event_->receivers = static_cast<std::uint32_t>(receivers_.size());
    if (faults_ != nullptr) {
      const FaultStats& fs = faults_->round_stats();
      trace_event_->faults_dropped = fs.dropped;
      trace_event_->faults_duplicated = fs.duplicated;
      trace_event_->faults_delayed = fs.delayed;
      trace_event_->faults_deferred = fs.deferred;
      trace_event_->faults_crash_dropped = fs.crash_dropped;
    }
  }
  return t1;
}

// --- rounds ----------------------------------------------------------------

template <Engine::Phase P>
void Engine::run_phase(std::span<const NodeId> nodes) {
  pool_->parallel_for(nodes.size(), [&](std::size_t i) {
    const NodeId v = nodes[i];
    NodeContext& ctx = contexts_[v];
    if constexpr (P == Phase::kReceive) {
      // No receive set holds a down node: the fault plane discards what is
      // delivered to one.
      ctx.rebind(round_, inbox_[v], /*may_send=*/false);
    } else {
      if (faults_ != nullptr && faults_->node_down(v, round_)) return;
      ctx.rebind(round_, {}, /*may_send=*/true);
    }
    const ClockTp w0 = profile_ ? Clock::now() : ClockTp{};
    Protocol& p = *protocols_[v];
    if constexpr (P == Phase::kInit) {
      p.init(ctx);
    } else if constexpr (P == Phase::kSend) {
      p.send_phase(ctx);
    } else {
      p.receive_phase(ctx);
    }
    if (profile_) profile_node(v, to_ns(seconds_since(w0)));
  });
}

std::uint64_t Engine::step() {
  // Round 0, whose send step is init, and every dense round run all nodes;
  // a sparse round runs the nodes whose wake is due.
  const bool init = !init_done_;
  const bool every_node = init || dense_;
  if (!init) ++round_;
  stats_.rounds = round_;
  if (recorder_ != nullptr) {
    trace_event_ = &recorder_->round_slot();
    trace_event_->round = round_;
  }
  if (!every_node) build_active_set();
  const std::span<const NodeId> all = all_nodes_;
  const std::span<const NodeId> senders =
      every_node ? all : std::span<const NodeId>(active_now_);

  const auto t0 = chain_ticks_ ? last_tick_ : Clock::now();
  if (init) {
    run_phase<Phase::kInit>(senders);
  } else {
    run_phase<Phase::kSend>(senders);
    if (!dense_) reschedule_after_phase(senders);
  }
  const auto ts = Clock::now();
  const double send_dt = seconds_between(t0, ts);
  stats_.send_seconds += send_dt;
  stats_.send_ns_hist.record(to_ns(send_dt));

  const auto td = deliver(senders, ts);
  // Where every node sent, every node receives (an empty inbox is a no-op by
  // the Protocol contract) -- unless faults are on, when only the inboxes
  // the fault plane filled this round are current.
  run_phase<Phase::kReceive>(every_node && faults_ == nullptr
                                 ? all
                                 : std::span<const NodeId>(receivers_));
  // Round 0 hints every node once, after its receive phase; a sparse round
  // re-hints its receivers.
  if (!dense_) reschedule_after_phase(init ? all : receivers_);
  const auto te = Clock::now();
  const double recv_dt = seconds_between(td, te);
  last_tick_ = te;
  stats_.receive_seconds += recv_dt;
  stats_.receive_ns_hist.record(to_ns(recv_dt));

  if (track_quiet_) {
    refresh_quiescence(init ? all : std::span<const NodeId>(touched_senders_));
    refresh_quiescence(receivers_);
  }
  if (profile_) record_work_items();
  if (trace_event_ != nullptr) {
    trace_event_->send_s = send_dt;
    trace_event_->receive_s = recv_dt;
    recorder_->commit_round(*trace_event_);
    trace_event_ = nullptr;
  }
  init_done_ = true;
  return round_messages_;
}

RunStats Engine::run() {
  if (!init_done_) {
    step();
    chain_ticks_ = true;  // last_tick_ was taken moments ago, safe to reuse
  }
  // Chain round-boundary ticks only while this loop is driving: a tick left
  // over from an external step() call could be arbitrarily stale, so the
  // flag stays off until the first step below refreshes it.
  struct ChainGuard {
    bool& flag;
    ~ChainGuard() { flag = false; }
  } guard{chain_ticks_};

  while (round_ < options_.max_rounds) {
    const std::uint64_t sent = step();
    chain_ticks_ = true;
    const bool frames_pending = faults_ != nullptr && faults_->has_pending();
    if (sent == 0 && !frames_pending && all_quiescent()) {
      return stats_;
    }
    if (!dense_ && active_next_.empty()) {
      // No node may act next round; the gap up to the earliest heap wake is
      // provably silent (hints are sound), so the dense engine would execute
      // it as empty rounds.  Mirror its two possible behaviors exactly:
      // stop after one silent round if everyone is quiescent, otherwise
      // account the whole gap at once.
      Round wake = next_heap_wake();
      if (frames_pending) {
        // A round that releases fault-plane frames is not silent: clamp the
        // fast-forward so the due round executes.  Bandwidth-starved frames
        // are due immediately (ready <= round_), hence the floor at the very
        // next round.
        const Round due = faults_->next_due_round();
        wake = std::min(wake, due > round_ + 1 ? due : round_ + 1);
      }
      const Round target = wake == Protocol::kNeverSends
                               ? options_.max_rounds
                               : std::min(wake - 1, options_.max_rounds);
      if (target > round_) {
        if (!frames_pending && all_quiescent()) {
          skip_silent_rounds(1);
          return stats_;
        }
        skip_silent_rounds(target - round_);
      }
    }
  }
  // Ran out of budget: only a failure if someone still wanted to talk.
  const bool all_quiet = round_messages_ == 0 && all_quiescent() &&
                         (faults_ == nullptr || !faults_->has_pending());
  stats_.hit_round_limit = !all_quiet;
  return stats_;
}

}  // namespace dapsp::congest
