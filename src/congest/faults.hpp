// Deterministic fault injection for the CONGEST engine.
//
// The paper's theorems assume flawless synchronous rounds; production
// networks drop, duplicate, delay, and crash.  A `FaultPlan` is a seeded,
// declarative description of such adversity:
//   * per-message drop / duplication with seeded probability,
//   * delivery delay by k rounds through a per-link reorder buffer,
//   * crash-stop nodes at a scheduled round (optionally revived later),
//   * per-link bandwidth caps (B deliveries per round, overflow queued).
//
// Everything is bit-reproducible from the plan's single seed: every fate
// decision is a counter-based hash of (seed, round, link slot, message
// index), never a shared RNG stream, so outcomes are identical across
// thread counts and across the sparse/dense schedulers (tested).  A null or
// all-zero plan costs nothing: the engine only instantiates the fault plane
// when `FaultPlan::enabled()` is true, and without it delivery appends each
// message straight to its receiver's inbox.
//
// Semantics (all at round granularity, matching the engine's send -> deliver
// -> receive structure):
//   * Drop: the message vanishes; the send is still counted in RunStats
//     (the sender paid for it), the loss is counted in RunStats::faults.
//   * Duplicate: one extra copy is injected on the same link; each copy
//     draws its own delay.
//   * Delay k: the copy is delivered at the end of round r+k instead of r.
//     Later traffic on the link may overtake it (reorder buffer, not a
//     FIFO stall).
//   * Bandwidth B: at most B messages cross a directed link per round;
//     eligible overflow stays queued in (ready round, admission order)
//     order.  B = 0 means unlimited.
//   * Crash-stop at round c: from round c the node runs no phases, sends
//     nothing, and every message delivered to it is discarded.  State is
//     frozen, not lost: an optional revive round brings the node back with
//     its pre-crash protocol state (messages lost while down stay lost).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "congest/message.hpp"
#include "congest/metrics.hpp"

namespace dapsp::congest {

struct FaultPlan {
  static constexpr Round kNever = std::numeric_limits<Round>::max();

  /// One crash-stop interval: the node is down in rounds [at, revive).
  struct Crash {
    NodeId node = 0;
    Round at = 0;
    Round revive = kNever;

    friend bool operator==(const Crash&, const Crash&) = default;
  };

  std::uint64_t seed = 0xfa1175eedULL;
  double drop_prob = 0.0;   ///< per message
  double dup_prob = 0.0;    ///< per surviving message
  double delay_prob = 0.0;  ///< per delivered copy
  Round max_delay = 1;      ///< delays drawn uniformly from [1, max_delay]
  std::uint64_t link_bandwidth = 0;  ///< deliveries per link per round; 0 = off
  std::vector<Crash> crashes;

  /// True when any fault is actually configured; an all-zero plan is
  /// indistinguishable from no plan (the engine skips the fault plane).
  bool enabled() const noexcept;
  bool has_crashes() const noexcept { return !crashes.empty(); }

  /// Throws std::invalid_argument on out-of-range probabilities, zero
  /// max_delay with a positive delay probability, or overlapping / inverted
  /// crash intervals for one node.
  void validate() const;

  /// Parses the CLI spec grammar (see docs/TESTING.md):
  ///   "drop=P,dup=P,delay=P:K,bw=B,crash=NODE@AT[..REVIVE],seed=S"
  /// Fields are comma-separated, each optional, crash repeatable; K (the max
  /// delay) defaults to 1, a crash without ..REVIVE never revives.  Throws
  /// std::invalid_argument with a pointed message on malformed input.
  static FaultPlan parse(const std::string& spec);

  /// Round-trips through parse(): a canonical spec string for the plan.
  std::string spec() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Per-engine fault machinery: owns the pending (delayed / over-bandwidth)
/// message buffers and the per-round fault counters.  All calls happen on
/// the engine's single-threaded delivery path; fate decisions are pure
/// functions of (plan seed, round, link slot, message index), so no state
/// here influences randomness.
class FaultPlane {
 public:
  /// `link_from[s]` / `link_target[s]` give the endpoints of directed link
  /// slot s (the engine's CSR numbering).  Throws std::invalid_argument when
  /// the plan references nodes outside [0, n).
  FaultPlane(const FaultPlan& plan, NodeId nodes,
             std::vector<NodeId> link_from, std::vector<NodeId> link_target);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// True when node v executes no phases in round r.
  bool node_down(NodeId v, Round r) const noexcept;
  /// True when node v is down in round r and will never revive (treated as
  /// quiescent by termination detection; it can never act again).
  bool down_forever(NodeId v, Round r) const noexcept;
  /// The round node v comes back up (FaultPlan::kNever when it never does).
  /// Only meaningful while node_down(v, .) holds; the sparse scheduler parks
  /// a down node's wake here.
  Round revive_round(NodeId v) const noexcept { return revive_at_[v]; }

  /// Resets the per-round counters; call once per engine round before
  /// admit/release.
  void begin_round();

  /// Feeds one message sent on link `slot` in round r through
  /// drop/duplicate/delay and into the pending buffer.  A link's messages
  /// must arrive in send order: the link counts them per round, and the
  /// count is the message index that keys the fate draws.
  void admit(Round r, std::uint32_t slot, const Message& m);

  /// Delivers every pending message due in round r: appends envelopes to
  /// `inbox[target]` (clearing each target's inbox on first touch via
  /// `inbox_mark`) and records touched receivers in `receivers`.  Messages
  /// to down nodes are discarded and counted.  Iterates links in ascending
  /// slot order, so each receiver's inbox is (sender ascending, then ready
  /// round, then admission order) -- deterministic for any thread count.
  void release(Round r, std::vector<std::vector<Envelope>>& inbox,
               std::vector<std::uint8_t>& inbox_mark,
               std::vector<NodeId>& receivers);

  /// Messages still buffered for a future (or bandwidth-starved) delivery.
  bool has_pending() const noexcept { return pending_total_ > 0; }
  /// Earliest round a pending message becomes deliverable; kNeverSends when
  /// nothing is pending.  The sparse scheduler must not fast-forward past
  /// this round.
  Round next_due_round() const noexcept;

  /// Fault counters for the round between the last begin_round() and now.
  const FaultStats& round_stats() const noexcept { return round_; }

 private:
  struct Frame {
    Message msg;
    Round ready = 0;        ///< delivery becomes possible at end of this round
    std::uint64_t seq = 0;  ///< per-link admission order (FIFO tie-break)
    bool deferred = false;  ///< already counted as bandwidth-deferred
  };
  /// Min-heap on (ready, seq) stored per link; empty for idle links.
  struct LinkQueue {
    std::vector<Frame> frames;
    std::uint64_t next_seq = 0;
    Round admit_round = FaultPlan::kNever;  ///< round `admitted` counts
    std::uint64_t admitted = 0;  ///< messages admitted in admit_round
  };

  void push_frame(std::uint32_t slot, const Message& m, Round ready);

  FaultPlan plan_;
  std::vector<NodeId> link_from_;
  std::vector<NodeId> link_target_;
  /// Crash schedule flattened per node (one interval per node; validate()
  /// rejects overlaps, later intervals for the same node are merged there).
  std::vector<Round> crash_at_;
  std::vector<Round> revive_at_;
  std::vector<LinkQueue> queues_;
  std::vector<std::uint32_t> active_slots_;  ///< non-empty queues, kept sorted
  std::vector<std::uint8_t> active_mark_;
  std::size_t pending_total_ = 0;
  FaultStats round_;
};

}  // namespace dapsp::congest
