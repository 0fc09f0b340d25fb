// Round/message/congestion accounting for a simulator run.
//
// Round counts are the quantity every theorem in the paper bounds, so the
// engine treats them as first-class results rather than debug output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/message.hpp"
#include "obs/histogram.hpp"

namespace dapsp::congest {

/// Counters for injected faults (see congest/faults.hpp).  All fields are
/// deterministic: a (seed, plan) pair produces bit-identical counts across
/// thread counts and schedulers.  All zero when no fault plan is installed.
struct FaultStats {
  std::uint64_t dropped = 0;        ///< messages destroyed by drop_prob
  std::uint64_t duplicated = 0;     ///< extra copies injected by dup_prob
  std::uint64_t delayed = 0;        ///< copies rescheduled to a later round
  std::uint64_t deferred = 0;       ///< copies held back by a bandwidth cap
  std::uint64_t crash_dropped = 0;  ///< deliveries discarded at a down node
  std::uint64_t delivered = 0;      ///< copies that reached a live inbox
  std::uint64_t max_backlog = 0;    ///< peak messages buffered in the plane

  bool any() const {
    return dropped | duplicated | delayed | deferred | crash_dropped |
           delivered | max_backlog;
  }

  FaultStats& operator+=(const FaultStats& o) {
    dropped += o.dropped;
    duplicated += o.duplicated;
    delayed += o.delayed;
    deferred += o.deferred;
    crash_dropped += o.crash_dropped;
    delivered += o.delivered;
    max_backlog = max_backlog > o.max_backlog ? max_backlog : o.max_backlog;
    return *this;
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

struct RunStats {
  Round rounds = 0;               ///< rounds executed (init round 0 excluded)
  Round last_message_round = 0;   ///< last round in which any message was sent
  std::uint64_t total_messages = 0;
  /// Maximum number of messages carried by one directed link in one round.
  /// CONGEST allows exactly 1; values above 1 mean the schedule would need
  /// that many CONGEST rounds for the busiest link (reported, never hidden).
  std::uint64_t max_link_congestion = 0;
  Round max_congestion_round = 0;
  /// Maximum messages sent over one directed link across the whole run
  /// (the "congestion" of Lemma II.15).
  std::uint64_t max_link_total = 0;
  std::uint32_t max_message_fields = 0;
  /// The rounds' CONGEST wire size: per message sent, an 8-byte (tag, used)
  /// header plus 8 bytes per *used* field.  A model quantity, not the bytes
  /// the simulator copies; deterministic (bit-identical across schedulers
  /// and thread counts).
  std::uint64_t message_bytes = 0;
  bool hit_round_limit = false;
  std::vector<std::uint64_t> per_round_messages;  ///< filled when recording

  /// Silent rounds the sparse engine fast-forwarded instead of executing.
  /// They are fully counted in `rounds` (and as zeros in
  /// `per_round_messages`); this records how many never paid a simulation
  /// step.  Always 0 on the dense fallback path.
  Round skipped_rounds = 0;

  /// Injected-fault counters; all zero unless a FaultPlan was attached.
  FaultStats faults;

  /// Distribution of per-round message counts (one sample per simulated
  /// round, fast-forwarded silent rounds included as zeros).  Deterministic:
  /// bit-identical across schedulers and thread counts, like
  /// per_round_messages but always on and O(1) space.
  obs::Histogram round_messages_hist;

  /// Simulator wall-clock per engine phase, in seconds (host-machine
  /// observability, NOT part of the deterministic CONGEST accounting above;
  /// equivalence tests must ignore these).
  double send_seconds = 0.0;
  double deliver_seconds = 0.0;
  double receive_seconds = 0.0;

  /// Per-round wall-clock distributions (ns) for each engine phase; host
  /// observability like the *_seconds totals.  Executed rounds only --
  /// fast-forwarded rounds cost no wall-clock and record no sample.
  obs::Histogram send_ns_hist;
  obs::Histogram deliver_ns_hist;
  obs::Histogram receive_ns_hist;

  /// Sequential composition of two phases (rounds add, maxima combine).
  RunStats& operator+=(const RunStats& o);

  std::string summary() const;
};

}  // namespace dapsp::congest
