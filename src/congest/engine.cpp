#include "congest/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "congest/faults.hpp"
#include "congest/plane.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::congest {

using graph::Graph;
using graph::NodeId;

namespace {

// Process-wide A/B overrides (see Engine::set_force_dense).  Plain statics:
// they are latched in the Engine constructor, and tests set them between
// solver runs, never concurrently with engine construction.
bool g_force_dense = false;
bool g_force_pin = false;
std::size_t g_force_threads = Engine::kNoThreadOverride;
obs::TraceRecorder* g_global_recorder = nullptr;
const FaultPlan* g_global_fault_plan = nullptr;
MessagePlane* g_global_plane = nullptr;

using Clock = std::chrono::steady_clock;

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

void Engine::set_force_dense(bool on) noexcept { g_force_dense = on; }
bool Engine::force_dense() noexcept { return g_force_dense; }
void Engine::set_force_threads(std::size_t threads) noexcept {
  g_force_threads = threads;
}
void Engine::set_force_pin(bool on) noexcept { g_force_pin = on; }
bool Engine::force_pin() noexcept { return g_force_pin; }
void Engine::set_global_recorder(obs::TraceRecorder* rec) noexcept {
  g_global_recorder = rec;
}
obs::TraceRecorder* Engine::global_recorder() noexcept {
  return g_global_recorder;
}
void Engine::set_global_fault_plan(const FaultPlan* plan) noexcept {
  g_global_fault_plan = plan;
}
const FaultPlan* Engine::global_fault_plan() noexcept {
  return g_global_fault_plan;
}
void Engine::set_global_plane(MessagePlane* plane) noexcept {
  g_global_plane = plane;
}
MessagePlane* Engine::global_plane() noexcept { return g_global_plane; }

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
  } else {
    ob.has_dup = true;
  }
  ob.slots.push_back(static_cast<std::uint32_t>(slot));
  ob.msgs.push_back(m);
}

Engine::Engine(const Graph& g, std::vector<std::unique_ptr<Protocol>> protocols,
               EngineOptions options)
    : graph_(g), protocols_(std::move(protocols)), options_(options) {
  util::check(protocols_.size() == g.node_count(),
              "Engine: need one protocol per node");
  dense_ = options_.dense_fallback || g_force_dense;
  recorder_ = options_.recorder != nullptr ? options_.recorder
                                           : g_global_recorder;
  const NodeId n = g.node_count();

  // Satellite fix: resolve the pool exactly once, here, instead of lazily
  // re-checking on every phase call.
  const std::size_t threads =
      g_force_threads != kNoThreadOverride ? g_force_threads : options_.threads;
  if (threads > 0) {
    own_pool_ = std::make_unique<util::ThreadPool>(threads);
    pool_ = own_pool_.get();
  } else {
    pool_ = &util::ThreadPool::global();
  }
  if (options_.pin_threads || g_force_pin) pool_->pin_threads();

  link_base_.resize(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    link_base_[v + 1] = link_base_[v] + g.comm_degree(v);
  }
  const std::size_t links = link_base_[n];
  link_target_.resize(links);
  link_cnt_.assign(links, 0);
  link_off_.assign(links, 0);
  link_lifetime_count_.assign(links, 0);
  out_.resize(n);
  sent_mark_.assign(n, 0);
  inbox_.resize(n);
  inbox_mark_.assign(n, 0);

  in_base_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.comm_neighbors(u);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      link_target_[link_base_[u] + j] = nbrs[j];
      ++in_base_[nbrs[j] + 1];
    }
  }
  for (NodeId v = 0; v < n; ++v) in_base_[v + 1] += in_base_[v];
  in_links_.resize(links);
  {
    std::vector<std::size_t> cursor(in_base_.begin(), in_base_.end() - 1);
    // comm_neighbors is sorted and u iterates ascending, so each receiver's
    // in-link list comes out sender-ascending with no extra sort.
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = g.comm_neighbors(u);
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        in_links_[cursor[nbrs[j]]++] = {u, link_base_[u] + j};
      }
    }
  }

  const FaultPlan* plan =
      options_.faults != nullptr ? options_.faults : g_global_fault_plan;
  if (plan != nullptr && plan->enabled()) {
    std::vector<NodeId> link_from(links);
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t s = link_base_[u]; s < link_base_[u + 1]; ++s) {
        link_from[s] = u;
      }
    }
    faults_ =
        std::make_unique<FaultPlane>(*plan, n, std::move(link_from),
                                     link_target_);
  }

  plane_ = options_.plane != nullptr ? options_.plane : g_global_plane;
  if (plane_ == nullptr) plane_ = &InProcessPlane::instance();
  plane_remote_ = plane_->remote();
  if (plane_remote_ && faults_ != nullptr) {
    // A simulated fault plan inside a real distributed run would fork the
    // replicas' message histories; real faults come from real processes.
    throw std::logic_error(
        "Engine: a remote message plane cannot combine with a simulated "
        "FaultPlan");
  }
  if (plane_remote_) {
    wire_cnt_.assign(links, 0);
    wire_off_.assign(links, 0);
  }

  if (!dense_) {
    wake_round_.assign(n, 0);
    in_next_.assign(n, 0);
    active_next_.reserve(n);
  }
  track_quiet_ = faults_ == nullptr;
  if (track_quiet_) quiet_.assign(n, 0);
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
  plane_->begin_run(n, static_cast<std::uint64_t>(links));
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

void Engine::refresh_quiescence() {
  // Senders and receivers may overlap; the update is idempotent so the
  // double query is harmless (and rare).
  const auto update = [&](NodeId v) {
    const std::uint8_t q = protocols_[v]->quiescent() ? 1 : 0;
    if (q != quiet_[v]) {
      quiet_[v] = q;
      nonquiet_ += q ? std::uint64_t(-1) : std::uint64_t(1);
    }
  };
  for (const NodeId v : touched_senders_) update(v);
  for (const NodeId v : receivers_) update(v);
}

std::size_t Engine::plane_capacity_bytes() const {
  std::size_t bytes = 0;
  for (const Outbox& ob : out_) {
    bytes += ob.slots.capacity() * sizeof(std::uint32_t) +
             ob.touched.capacity() * sizeof(std::uint32_t) +
             ob.pos.capacity() * sizeof(std::uint32_t) +
             ob.msgs.capacity_bytes() + ob.sorted.capacity_bytes();
  }
  for (const auto& in : inbox_) bytes += in.capacity() * sizeof(Envelope);
  bytes += touched_senders_.capacity() * sizeof(NodeId) +
           receivers_.capacity() * sizeof(NodeId) +
           partials_.capacity() * sizeof(SenderPartial) +
           msg_scratch_.capacity() * sizeof(Message) +
           heap_.capacity() * sizeof(std::pair<Round, NodeId>) +
           active_next_.capacity() * sizeof(NodeId) +
           active_now_.capacity() * sizeof(NodeId) +
           link_scratch_.capacity() *
               sizeof(std::pair<std::uint64_t, std::uint32_t>);
  return bytes;
}

// --- sparse scheduler ------------------------------------------------------

void Engine::schedule(NodeId v, Round wake) {
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
  // msgs_out comes from the deliver() partials, still parallel to it --
  // with a sorted copy of the receiver list.  Both sets are identical for
  // sparse/dense and every thread count, so the item stream is too.
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
      msgs_out = static_cast<std::uint32_t>(partials_[si].msgs);
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

void Engine::gather_inbox(NodeId v) {
  auto& in = inbox_[v];
  in.clear();  // already empty by the deferred-clear invariant; kept cheap
  const std::size_t end = in_base_[v + 1];
  for (std::size_t i = in_base_[v]; i < end; ++i) {
    const auto& [from, slot] = in_links_[i];
    const std::uint32_t cnt = link_cnt_[slot];
    if (cnt == 0) continue;
    const Outbox& ob = out_[from];
    const MessageColumns& src = ob.has_dup ? ob.sorted : ob.msgs;
    const std::uint32_t off = link_off_[slot];
    for (std::uint32_t j = 0; j < cnt; ++j) {
      src.append_envelope(off + j, from, in);
    }
  }
  if (options_.scramble_inbox && in.size() > 1) {
    util::Xoshiro256 rng(options_.scramble_seed ^ (v * 0x9e3779b9ULL) ^
                         (round_ << 20));
    for (std::size_t i = in.size(); i > 1; --i) {
      std::swap(in[i - 1], in[rng.below(i)]);
    }
  }
}

/// Serializes the finalized round into the canonical block (see plane.hpp):
/// senders ascending, each sender's links in first-touch order, send order
/// within a link.  Must run after step 2 of deliver() has filled link_off_.
void Engine::encode_round_block(std::string& out) const {
  out.clear();
  block_put_u32(out, static_cast<std::uint32_t>(touched_senders_.size()));
  for (const NodeId sender : touched_senders_) {
    const Outbox& ob = out_[sender];
    const MessageColumns& src = ob.has_dup ? ob.sorted : ob.msgs;
    block_put_u32(out, sender);
    block_put_u32(out, static_cast<std::uint32_t>(ob.touched.size()));
    const std::size_t len_pos = out.size();
    block_put_u32(out, 0);  // byte_len, patched once the groups are written
    const std::size_t body_start = out.size();
    for (const std::uint32_t slot : ob.touched) {
      const std::uint32_t cnt = link_cnt_[slot];
      const std::uint32_t off = link_off_[slot];
      block_put_u32(out, slot);
      block_put_u32(out, cnt);
      for (std::uint32_t j = 0; j < cnt; ++j) {
        const std::size_t idx = off + j;
        block_put_u32(out, src.tag(idx));
        const std::uint32_t used = src.used(idx);
        block_put_u32(out, used);
        const std::int64_t* f = src.fields(idx);
        for (std::uint32_t t = 0; t < used; ++t) {
          block_put_u64(out, static_cast<std::uint64_t>(f[t]));
        }
      }
    }
    block_patch_u32(out, len_pos,
                    static_cast<std::uint32_t>(out.size() - body_start));
  }
}

/// Rebuilds the receive side of the round from an authoritative wire block:
/// validates the canonical layout, fills the wire columns and per-link
/// (count, offset) tables, and gathers every receiver's inbox from them --
/// the wire twin of the direct column gather.  Receiver discovery order
/// matches the in-process path because the block preserves (sender
/// ascending, first-touch link) order.
void Engine::decode_and_gather(const std::string& block) {
  const NodeId n = graph_.node_count();
  const auto bad = [](const char* why) {
    throw std::runtime_error(
        std::string("Engine: malformed wire round block: ") + why);
  };
  wire_cols_.clear();
  wire_slots_.clear();
  receivers_.clear();
  BlockReader r(block);
  const std::uint32_t sender_count = r.u32();
  NodeId prev_sender = 0;
  bool have_prev = false;
  for (std::uint32_t s = 0; s < sender_count && r.ok(); ++s) {
    const NodeId sender = r.u32();
    const std::uint32_t groups = r.u32();
    r.u32();  // byte_len: shard-slicing metadata, redundant here
    if (!r.ok()) break;
    if (sender >= n) bad("sender id out of range");
    if (have_prev && sender <= prev_sender) bad("senders not ascending");
    prev_sender = sender;
    have_prev = true;
    const std::size_t lo = link_base_[sender];
    const std::size_t hi = link_base_[sender + 1];
    for (std::uint32_t g = 0; g < groups && r.ok(); ++g) {
      const std::uint32_t slot = r.u32();
      const std::uint32_t cnt = r.u32();
      if (!r.ok()) break;
      if (slot < lo || slot >= hi) bad("link slot outside sender's range");
      if (wire_cnt_[slot] != 0) bad("duplicate link group");
      if (cnt == 0) bad("empty link group");
      wire_cnt_[slot] = cnt;
      wire_off_[slot] = static_cast<std::uint32_t>(wire_cols_.size());
      wire_slots_.push_back(slot);
      Message m;
      for (std::uint32_t j = 0; j < cnt && r.ok(); ++j) {
        m.tag = r.u32();
        m.used = r.u32();
        if (!r.ok()) break;
        if (m.used > Message::kMaxFields) bad("message field count too large");
        for (std::uint32_t t = 0; t < m.used; ++t) {
          m.f[t] = static_cast<std::int64_t>(r.u64());
        }
        for (std::size_t t = m.used; t < Message::kMaxFields; ++t) m.f[t] = 0;
        wire_cols_.push_back(m);
      }
      const NodeId u = link_target_[slot];
      if (!inbox_mark_[u]) {
        inbox_mark_[u] = 1;
        receivers_.push_back(u);
      }
    }
  }
  if (!r.ok()) bad("truncated block");
  if (!r.done()) bad("trailing bytes");
  pool_->parallel_for(receivers_.size(), [&](std::size_t i) {
    gather_inbox_wire(receivers_[i]);
  });
  for (const NodeId u : receivers_) inbox_mark_[u] = 0;
  for (const std::uint32_t slot : wire_slots_) wire_cnt_[slot] = 0;
}

/// gather_inbox over the decoded wire columns instead of the senders'
/// outboxes; same in-link iteration order and the same scramble draw, so a
/// healthy wire round is bit-identical to the direct gather.
void Engine::gather_inbox_wire(NodeId v) {
  auto& in = inbox_[v];
  in.clear();
  const std::size_t end = in_base_[v + 1];
  for (std::size_t i = in_base_[v]; i < end; ++i) {
    const auto& [from, slot] = in_links_[i];
    const std::uint32_t cnt = wire_cnt_[slot];
    if (cnt == 0) continue;
    const std::uint32_t off = wire_off_[slot];
    for (std::uint32_t j = 0; j < cnt; ++j) {
      wire_cols_.append_envelope(off + j, from, in);
    }
  }
  if (options_.scramble_inbox && in.size() > 1) {
    util::Xoshiro256 rng(options_.scramble_seed ^ (v * 0x9e3779b9ULL) ^
                         (round_ << 20));
    for (std::size_t i = in.size(); i > 1; --i) {
      std::swap(in[i - 1], in[rng.below(i)]);
    }
  }
}

Engine::ClockTp Engine::deliver(DeliverScope scope, ClockTp t0) {
  const NodeId n = graph_.node_count();

  // 0. Deferred inbox clearing: only the previous round's receivers hold
  // envelopes (see the invariant at inbox_'s declaration), so clearing that
  // list restores the all-empty state without touching the other n inboxes.
  // The fault plane clears on first touch in release() instead, and its
  // receive loops never read untouched inboxes.
  if (faults_ == nullptr) {
    for (const NodeId v : receivers_) inbox_[v].clear();
  }

  // 1. Collect this round's senders from the mark bytes (contiguous scan,
  // no outbox-struct probing).  The all-nodes scan yields ascending order;
  // the active-only path sorts so accounting, tracing, and lifetime updates
  // happen in the dense engine's order regardless of how the active set was
  // assembled.
  touched_senders_.clear();
  if (scope == DeliverScope::kAllNodes) {
    for (NodeId v = 0; v < n; ++v) {
      if (sent_mark_[v]) touched_senders_.push_back(v);
    }
  } else {
    for (const NodeId v : active_now_) {
      if (sent_mark_[v]) touched_senders_.push_back(v);
    }
    std::sort(touched_senders_.begin(), touched_senders_.end());
  }

  // 2. Per-sender finalize + accounting partials.  Sender-local except for
  // the link arrays, whose slots are partitioned by sender, so the pass can
  // run on the pool; the reduction below is sequential and order-fixed, so
  // stats are identical at every thread count.
  partials_.resize(touched_senders_.size());
  auto finalize_sender = [&](std::size_t i) {
    const NodeId v = touched_senders_[i];
    Outbox& ob = out_[v];
    if (!ob.has_dup) {
      // Every touched link carries exactly one message: its columns offset
      // is simply the send index.
      for (std::size_t j = 0; j < ob.slots.size(); ++j) {
        link_off_[ob.slots[j]] = static_cast<std::uint32_t>(j);
      }
    } else {
      // Group messages per link, preserving send order: prefix ends over the
      // touched links, a backward pass that rewinds each cursor to assign
      // every send its grouped position, then one columnar scatter.
      std::uint32_t off = 0;
      for (const std::uint32_t s : ob.touched) {
        off += link_cnt_[s];
        link_off_[s] = off;
      }
      ob.pos.resize(ob.slots.size());
      for (std::size_t j = ob.slots.size(); j-- > 0;) {
        ob.pos[j] = --link_off_[ob.slots[j]];
      }
      ob.sorted.assign_permuted(ob.msgs, ob.pos);
    }
    SenderPartial p;
    for (const std::uint32_t s : ob.touched) {
      const std::uint64_t c = link_cnt_[s];
      p.msgs += c;
      p.max_cong = std::max(p.max_cong, c);
      link_lifetime_count_[s] += c;
      p.max_link_total = std::max(p.max_link_total, link_lifetime_count_[s]);
    }
    // Bytes actually moved by delivery: an 8-byte (tag, used) header plus
    // the used payload words per message -- deterministic, unlike the old
    // whole-struct copies whose 72 bytes never showed up in any stat.
    p.bytes = 8 * (ob.msgs.size() + ob.msgs.field_words());
    p.max_fields = ob.msgs.max_used();
    partials_[i] = p;
  };
  if (touched_senders_.size() >= 1024) {
    pool_->parallel_for(touched_senders_.size(), finalize_sender);
  } else {
    for (std::size_t i = 0; i < touched_senders_.size(); ++i) {
      finalize_sender(i);
    }
  }

  // 3. Deterministic reduction.
  round_messages_ = 0;
  std::uint64_t max_cong = 0;
  for (const SenderPartial& p : partials_) {
    round_messages_ += p.msgs;
    stats_.message_bytes += p.bytes;
    max_cong = std::max(max_cong, p.max_cong);
    stats_.max_link_total = std::max(stats_.max_link_total, p.max_link_total);
    stats_.max_message_fields =
        std::max(stats_.max_message_fields, p.max_fields);
  }
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

  // 4. Gather per receiver, in (sender, send order) order -- or, when
  // scrambling, in a deterministic per-(receiver, round) permutation.
  if (plane_remote_) {
    // Remote plane: serialize the round, let the plane replace the block
    // with the authoritative bytes (the coordinator's reassembly of every
    // shard's owned senders), and gather the receive side from the wire
    // image only.  That makes the gather below a function of bytes that
    // actually crossed the transport, never of this replica's own outboxes.
    encode_round_block(wire_block_);
    plane_->exchange(round_, wire_block_);
    decode_and_gather(wire_block_);
  } else if (faults_ != nullptr) {
    // Fault path: the round's sends pass through the fault plane instead of
    // the direct link arrays.  Admission order is (sender ascending, link in
    // first-touch order, send order within a link) -- deterministic because
    // touched_senders_ was sorted above and the fate draws are counter-based
    // -- and release() fills the inboxes from whatever is due this round.
    // Both schedules funnel through this single-threaded path, so sparse,
    // dense, and every thread count see identical faults.
    faults_->begin_round();
    for (const NodeId sender : touched_senders_) {
      const Outbox& ob = out_[sender];
      const MessageColumns& src = ob.has_dup ? ob.sorted : ob.msgs;
      for (const std::uint32_t slot : ob.touched) {
        const std::uint32_t cnt = link_cnt_[slot];
        const std::uint32_t off = link_off_[slot];
        if (msg_scratch_.size() < cnt) msg_scratch_.resize(cnt);
        for (std::uint32_t j = 0; j < cnt; ++j) {
          src.materialize(off + j, msg_scratch_[j]);
        }
        faults_->admit(round_, slot, msg_scratch_.data(), cnt);
      }
    }
    receivers_.clear();
    faults_->release(round_, inbox_, inbox_mark_, receivers_);
    for (const NodeId u : receivers_) inbox_mark_[u] = 0;
    if (options_.scramble_inbox) {
      for (const NodeId v : receivers_) {
        auto& in = inbox_[v];
        if (in.size() <= 1) continue;
        util::Xoshiro256 rng(options_.scramble_seed ^ (v * 0x9e3779b9ULL) ^
                             (round_ << 20));
        for (std::size_t i = in.size(); i > 1; --i) {
          std::swap(in[i - 1], in[rng.below(i)]);
        }
      }
    }
    stats_.faults += faults_->round_stats();
  } else {
    // Both schedules derive the receiver set from the touched links and
    // gather only those inboxes; all other inboxes are empty by the
    // deferred-clear invariant, so the dense oracle's exhaustive receive
    // loop still sees exactly what an all-nodes gather produced.
    receivers_.clear();
    for (const NodeId sender : touched_senders_) {
      for (const std::uint32_t slot : out_[sender].touched) {
        const NodeId u = link_target_[slot];
        if (!inbox_mark_[u]) {
          inbox_mark_[u] = 1;
          receivers_.push_back(u);
        }
      }
    }
    pool_->parallel_for(receivers_.size(), [&](std::size_t i) {
      gather_inbox(receivers_[i]);
    });
    for (const NodeId u : receivers_) inbox_mark_[u] = 0;
  }

  // 5. Retire outboxes (capacity kept -- steady-state rounds allocate
  // nothing).
  for (const NodeId sender : touched_senders_) {
    Outbox& ob = out_[sender];
    for (const std::uint32_t slot : ob.touched) link_cnt_[slot] = 0;
    ob.slots.clear();
    ob.msgs.clear();
    ob.touched.clear();
    ob.has_dup = false;
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

void Engine::run_init_round() {
  const NodeId n = graph_.node_count();
  if (recorder_ != nullptr) {
    trace_event_ = &recorder_->round_slot();
    trace_event_->round = 0;
  }
  const auto t0 = Clock::now();
  pool_->parallel_for(n, [&](std::size_t v) {
    if (faults_ != nullptr && faults_->node_down(static_cast<NodeId>(v), 0)) {
      return;
    }
    contexts_[v].rebind(0, {}, /*may_send=*/true);
    if (profile_) {
      const auto w0 = Clock::now();
      protocols_[v]->init(contexts_[v]);
      profile_node(static_cast<NodeId>(v), to_ns(seconds_since(w0)));
    } else {
      protocols_[v]->init(contexts_[v]);
    }
  });
  const auto ts = Clock::now();
  const double send_dt = seconds_between(t0, ts);
  stats_.send_seconds += send_dt;
  stats_.send_ns_hist.record(to_ns(send_dt));
  const auto td = deliver(DeliverScope::kAllNodes, ts);
  if (faults_ != nullptr) {
    // Only nodes the fault plane actually delivered to run a receive phase
    // (an empty-inbox receive is a no-op by the Protocol contract, and the
    // other inboxes are stale); down receivers never made it into the list.
    pool_->parallel_for(receivers_.size(), [&](std::size_t i) {
      const NodeId v = receivers_[i];
      contexts_[v].rebind(0, inbox_[v], /*may_send=*/false);
      if (profile_) {
        const auto w0 = Clock::now();
        protocols_[v]->receive_phase(contexts_[v]);
        profile_node(v, to_ns(seconds_since(w0)));
      } else {
        protocols_[v]->receive_phase(contexts_[v]);
      }
    });
  } else {
    pool_->parallel_for(n, [&](std::size_t v) {
      contexts_[v].rebind(0, inbox_[v], /*may_send=*/false);
      if (profile_) {
        const auto w0 = Clock::now();
        protocols_[v]->receive_phase(contexts_[v]);
        profile_node(static_cast<NodeId>(v), to_ns(seconds_since(w0)));
      } else {
        protocols_[v]->receive_phase(contexts_[v]);
      }
    });
  }
  const auto te = Clock::now();
  const double recv_dt = seconds_between(td, te);
  last_tick_ = te;
  stats_.receive_seconds += recv_dt;
  stats_.receive_ns_hist.record(to_ns(recv_dt));
  if (track_quiet_) {
    // Every node ran init, so the cache seeds from a full scan.
    nonquiet_ = 0;
    for (NodeId v = 0; v < n; ++v) {
      const bool q = protocols_[v]->quiescent();
      quiet_[v] = q ? 1 : 0;
      nonquiet_ += q ? 0 : 1;
    }
  }
  if (profile_) record_work_items();
  if (trace_event_ != nullptr) {
    trace_event_->send_s = send_dt;
    trace_event_->receive_s = recv_dt;
    recorder_->commit_round(*trace_event_);
    trace_event_ = nullptr;
  }
  if (!dense_) {
    for (NodeId v = 0; v < n; ++v) {
      if (faults_ != nullptr && faults_->node_down(v, 0)) {
        schedule(v, faults_->revive_round(v));
        continue;
      }
      schedule(v, protocols_[v]->next_send_round(0));
    }
  }
  init_done_ = true;
}

std::uint64_t Engine::step() {
  if (!init_done_) {
    run_init_round();
    return round_messages_;
  }
  ++round_;
  stats_.rounds = round_;
  if (recorder_ != nullptr) {
    trace_event_ = &recorder_->round_slot();
    trace_event_->round = round_;
  }

  double send_dt = 0.0;
  double recv_dt = 0.0;
  if (dense_) {
    const NodeId n = graph_.node_count();
    const auto t0 = chain_ticks_ ? last_tick_ : Clock::now();
    pool_->parallel_for(n, [&](std::size_t v) {
      if (faults_ != nullptr &&
          faults_->node_down(static_cast<NodeId>(v), round_)) {
        return;
      }
      contexts_[v].rebind(round_, {}, /*may_send=*/true);
      if (profile_) {
        const auto w0 = Clock::now();
        protocols_[v]->send_phase(contexts_[v]);
        profile_node(static_cast<NodeId>(v), to_ns(seconds_since(w0)));
      } else {
        protocols_[v]->send_phase(contexts_[v]);
      }
    });
    const auto ts = Clock::now();
    send_dt = seconds_between(t0, ts);
    stats_.send_seconds += send_dt;
    stats_.send_ns_hist.record(to_ns(send_dt));
    const auto td = deliver(DeliverScope::kAllNodes, ts);
    if (faults_ != nullptr) {
      pool_->parallel_for(receivers_.size(), [&](std::size_t i) {
        const NodeId v = receivers_[i];
        contexts_[v].rebind(round_, inbox_[v], /*may_send=*/false);
        if (profile_) {
          const auto w0 = Clock::now();
          protocols_[v]->receive_phase(contexts_[v]);
          profile_node(v, to_ns(seconds_since(w0)));
        } else {
          protocols_[v]->receive_phase(contexts_[v]);
        }
      });
    } else {
      pool_->parallel_for(n, [&](std::size_t v) {
        contexts_[v].rebind(round_, inbox_[v], /*may_send=*/false);
        if (profile_) {
          const auto w0 = Clock::now();
          protocols_[v]->receive_phase(contexts_[v]);
          profile_node(static_cast<NodeId>(v), to_ns(seconds_since(w0)));
        } else {
          protocols_[v]->receive_phase(contexts_[v]);
        }
      });
    }
    const auto te = Clock::now();
    recv_dt = seconds_between(td, te);
    last_tick_ = te;
  } else {
    build_active_set();
    const auto t0 = chain_ticks_ ? last_tick_ : Clock::now();
    pool_->parallel_for(active_now_.size(), [&](std::size_t i) {
      const NodeId v = active_now_[i];
      if (faults_ != nullptr && faults_->node_down(v, round_)) return;
      contexts_[v].rebind(round_, {}, /*may_send=*/true);
      if (profile_) {
        const auto w0 = Clock::now();
        protocols_[v]->send_phase(contexts_[v]);
        profile_node(v, to_ns(seconds_since(w0)));
      } else {
        protocols_[v]->send_phase(contexts_[v]);
      }
    });
    reschedule_after_phase(active_now_);
    const auto ts = Clock::now();
    send_dt = seconds_between(t0, ts);
    stats_.send_seconds += send_dt;
    stats_.send_ns_hist.record(to_ns(send_dt));
    const auto td = deliver(DeliverScope::kActiveOnly, ts);
    pool_->parallel_for(receivers_.size(), [&](std::size_t i) {
      const NodeId v = receivers_[i];
      contexts_[v].rebind(round_, inbox_[v], /*may_send=*/false);
      if (profile_) {
        const auto w0 = Clock::now();
        protocols_[v]->receive_phase(contexts_[v]);
        profile_node(v, to_ns(seconds_since(w0)));
      } else {
        protocols_[v]->receive_phase(contexts_[v]);
      }
    });
    reschedule_after_phase(receivers_);
    const auto te = Clock::now();
    recv_dt = seconds_between(td, te);
    last_tick_ = te;
  }
  stats_.receive_seconds += recv_dt;
  stats_.receive_ns_hist.record(to_ns(recv_dt));
  if (track_quiet_) refresh_quiescence();
  if (profile_) record_work_items();
  if (trace_event_ != nullptr) {
    trace_event_->send_s = send_dt;
    trace_event_->receive_s = recv_dt;
    recorder_->commit_round(*trace_event_);
    trace_event_ = nullptr;
  }
  return round_messages_;
}

RunStats Engine::run() {
  run_loop();
  // The plane hook sits outside the loop so every exit path (quiescence,
  // fast-forward stop, round budget) announces the same final stats.
  plane_->end_run(stats_);
  return stats_;
}

void Engine::run_loop() {
  if (!init_done_) {
    run_init_round();
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
    if (options_.stop_on_quiescence && sent == 0 && !frames_pending &&
        all_quiescent()) {
      return;
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
        if (options_.stop_on_quiescence && !frames_pending &&
            all_quiescent()) {
          skip_silent_rounds(1);
          return;
        }
        skip_silent_rounds(target - round_);
      }
    }
  }
  // Ran out of budget: only a failure if someone still wanted to talk.
  const bool all_quiet = round_messages_ == 0 && all_quiescent() &&
                         (faults_ == nullptr || !faults_->has_pending());
  stats_.hit_round_limit = !all_quiet;
}

}  // namespace dapsp::congest
