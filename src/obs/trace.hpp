// Engine trace sink: per-round observability for CONGEST runs.
//
// The engine's RunStats are scalar maxima -- enough to check a theorem's
// round bound, not enough to see *where* congestion or wall-clock went.
// A TraceRecorder (opt-in via RunEnv::recorder, which a run hands to every
// engine it builds; the CLI's --trace flag sets it) receives one event per
// executed round: message count, active sender/receiver counts,
// the top-K most loaded links, and per-phase wall-clock.  Fast-forwarded
// silent gaps are recorded as explicit gap events so the exported timeline
// is gap-free in *round* terms while paying nothing for skipped rounds.
//
// Storage is a reusable ring buffer: recording never allocates once warm
// (events are recycled, their top-link vectors keep capacity), and a
// runaway run overwrites its oldest rounds instead of exhausting memory --
// `dropped_events()` reports how many fell off.
//
// Two exporters, both through obs/json.hpp so the output always parses:
//  * write_chrome_trace: Chrome `trace_event` JSON (open in
//    chrome://tracing or https://ui.perfetto.dev) -- phases as duration
//    events on a wall-clock timeline, message counts as counter tracks.
//  * write_run_record: compact JSONL, one object per round/gap plus a
//    leading meta line -- the machine-readable run record EXPERIMENTS.md
//    describes, meant for diffing congestion distributions across PRs.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dapsp::obs {

/// Fixed-capacity overwrite-oldest buffer, indexable oldest-first.
/// Elements are recycled via push()'s return slot, so element-held heap
/// capacity (e.g. a vector member) survives wrap-around.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : data_(capacity == 0 ? 1 : capacity) {}

  /// Slot for the next element (the oldest one once full); the caller
  /// fills it in place.  Counts one push.
  T& push_slot() {
    T& slot = data_[(start_ + size_) % data_.size()];
    if (size_ < data_.size()) {
      ++size_;
    } else {
      start_ = (start_ + 1) % data_.size();
    }
    ++pushed_;
    return slot;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return data_.size(); }
  std::uint64_t pushed() const noexcept { return pushed_; }
  std::uint64_t dropped() const noexcept { return pushed_ - size_; }

  /// i = 0 is the oldest retained element.
  const T& operator[](std::size_t i) const {
    return data_[(start_ + i) % data_.size()];
  }

  void clear() noexcept {
    start_ = 0;
    size_ = 0;
    pushed_ = 0;
  }

 private:
  std::vector<T> data_;
  std::size_t start_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
};

/// One directed link's load within one round.
struct LinkLoad {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const LinkLoad&, const LinkLoad&) = default;
};

/// One per-(node, round) unit of engine work, recorded only when
/// `Options::work_item_capacity` is non-zero (the critical-path profiler's
/// feed; see obs/critpath.hpp).  An item exists for every node that sent or
/// received at least one message in a round -- a set that is identical for
/// the sparse and dense schedulers and for every thread count, which is what
/// makes the extracted critical path bit-identical across them.
///
/// Causal predecessor edges:
///  * `prev_round`  -- the same node's previous work item (kNoRound for the
///    node's first activation).
///  * `wake_from` / `wake_round` -- the message arrival that woke the node:
///    the max-lag arrival in its inbox, ties broken by smallest sender id.
///    In the fault-free engine every arrival was sent this same round (lag
///    0), so the edge reduces to the smallest sender id in the inbox; under
///    an active fault plan delayed frames lose their true send round at
///    delivery, so `wake_round` approximates it with the delivery round
///    (documented in docs/PERF.md -- the profiler is exact without faults).
struct WorkItem {
  static constexpr std::uint64_t kNoRound = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoWake = ~std::uint32_t{0};

  std::uint32_t run = 0;        ///< engine run index, same space as TraceEvent
  std::uint64_t round = 0;
  std::uint32_t node = 0;
  std::uint32_t msgs_in = 0;    ///< envelopes in this node's inbox this round
  std::uint32_t msgs_out = 0;   ///< messages this node sent this round
  /// Node-local send_phase + receive_phase wall-clock (host observability
  /// only, used for attribution -- never for chain extraction).
  std::uint64_t compute_ns = 0;
  std::uint64_t prev_round = kNoRound;
  std::uint32_t wake_from = kNoWake;
  std::uint64_t wake_round = 0;

  friend bool operator==(const WorkItem&, const WorkItem&) = default;
};

/// One recorded engine event: an executed round or a fast-forwarded gap.
struct TraceEvent {
  enum class Kind : std::uint8_t { kRound, kGap };

  Kind kind = Kind::kRound;
  std::uint32_t run = 0;        ///< engine run index (solvers chain phases)
  std::uint64_t round = 0;      ///< round number; first round of a gap
  std::uint64_t rounds = 1;     ///< rounds covered (> 1 only for gaps)
  std::uint64_t messages = 0;
  std::uint32_t senders = 0;    ///< nodes that sent this round
  std::uint32_t receivers = 0;  ///< nodes with a non-empty inbox
  std::uint64_t max_link_congestion = 0;
  double send_s = 0.0;          ///< wall-clock, host observability only
  double deliver_s = 0.0;
  double receive_s = 0.0;
  /// Injected-fault counters for this round (congest/faults.hpp); all zero
  /// -- and omitted from the run record -- unless a fault plan was active.
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_deferred = 0;
  std::uint64_t faults_crash_dropped = 0;
  /// Most-loaded links this round, descending, at most `Options::top_k`.
  std::vector<LinkLoad> top_links;
};

class TraceRecorder {
 public:
  struct Options {
    /// Rounds retained; older ones are overwritten (and counted as dropped).
    std::size_t capacity = 1 << 16;
    /// Per-round congestion leaderboard size (0 disables link tracking).
    std::size_t top_k = 4;
    /// Work items retained for critical-path analysis; 0 (the default)
    /// disables work-item recording entirely -- the engine then pays
    /// nothing beyond the per-round event.  Like `capacity`, the buffer
    /// overwrites oldest-first; the analyzer flags truncated chains.
    std::size_t work_item_capacity = 0;
  };

  struct RunInfo {
    std::string label;
    std::uint64_t nodes = 0;
    std::uint64_t links = 0;      ///< directed communication links
    std::uint64_t rounds = 0;     ///< rounds recorded for this run (incl. gaps)
    std::uint64_t messages = 0;
  };

  // Two constructors instead of `Options opt = {}`: a defaulted argument of
  // a nested NSDMI type is ill-formed until the enclosing class is complete.
  TraceRecorder();
  explicit TraceRecorder(Options opt);

  std::size_t top_k() const noexcept { return opt_.top_k; }

  // --- engine-facing hooks (single-threaded accounting pass) ---
  void begin_run(std::string label, std::uint64_t nodes, std::uint64_t links);
  /// Slot for the next round event, reset and pre-tagged with the current
  /// run; the engine fills it in place (top_links keeps its capacity) and
  /// then calls commit_round to fold it into the aggregates.
  TraceEvent& round_slot();
  void commit_round(const TraceEvent& e);
  void record_gap(std::uint64_t first_round, std::uint64_t rounds);
  /// Slot for the next work item, pre-tagged with the current run; only
  /// meaningful when records_work_items().  The engine fills it in place in
  /// deterministic (round, node id) order.
  WorkItem& work_item_slot();

  // --- inspection ---
  std::size_t size() const noexcept { return events_.size(); }
  const TraceEvent& event(std::size_t i) const { return events_[i]; }
  std::uint64_t dropped_events() const noexcept { return events_.dropped(); }
  bool records_work_items() const noexcept {
    return opt_.work_item_capacity != 0;
  }
  std::size_t work_item_count() const noexcept { return items_.size(); }
  /// i = 0 is the oldest retained work item.
  const WorkItem& work_item(std::size_t i) const { return items_[i]; }
  std::uint64_t work_items_seen() const noexcept { return items_.pushed(); }
  std::uint64_t dropped_work_items() const noexcept {
    return records_work_items() ? items_.dropped() : 0;
  }
  /// True when nothing fell off either ring: a profile built from this
  /// recorder covers every recorded round and work item.
  bool complete() const noexcept {
    return dropped_events() == 0 && dropped_work_items() == 0;
  }
  std::uint64_t rounds_seen() const noexcept { return rounds_seen_; }
  std::uint64_t skipped_rounds() const noexcept { return skipped_rounds_; }
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  const std::vector<RunInfo>& runs() const noexcept { return runs_; }

  /// Forgets all events and runs but keeps the buffer's capacity.
  void clear();

  // --- exporters ---
  void write_chrome_trace(std::ostream& os) const;
  void write_run_record(std::ostream& os) const;

 private:
  Options opt_;
  RingBuffer<TraceEvent> events_;
  RingBuffer<WorkItem> items_;  ///< capacity 1 placeholder when disabled
  std::vector<RunInfo> runs_;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t skipped_rounds_ = 0;
  std::uint64_t total_messages_ = 0;
};

}  // namespace dapsp::obs
