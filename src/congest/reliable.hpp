// Reliable transport over a lossy CONGEST plane.
//
// The paper's algorithms assume every message sent in round r arrives at the
// end of round r.  Under a FaultPlan (congest/faults.hpp) that promise
// breaks: messages drop, duplicate, and arrive late or reordered.  This
// adapter restores exactly-once, in-order delivery per directed link with
// the classic machinery -- per-link sequence numbers, cumulative acks
// (piggybacked on data when possible), retransmission with exponential
// backoff, and duplicate suppression -- so an unmodified inner protocol
// computes the same answer it would on a flawless network, just in more
// rounds.  Rounds-vs-loss-rate is the measurable cost (EXPERIMENTS.md E11).
//
// Scope: masks drop / duplicate / delay / reorder / bandwidth faults.  It
// cannot mask crash-stop -- a crashed node's state machine is gone, and no
// transport recovers state that was never sent; crash handling belongs to
// the service layer (build_oracle's partition check).
//
// Budget: at most one transport message per directed link per round (a data
// frame with a piggybacked ack, or a pure ack), so the CONGEST budget is
// respected exactly like a direct run.  Inner messages may use at most
// Message::kMaxFields - 3 fields -- enough for every algorithm payload in
// this repository (largest is 5).
//
// Timing caveat: the inner protocol sees the physical round number, and
// retransmissions stretch delivery, so round-indexed *schedules* (Algorithm
// 1's send rule) fire late exactly as under the multiplexer.  Monotone
// protocols (Bellman-Ford-style adopt-the-minimum) are unconditionally
// safe; that is what the differential tests run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "congest/engine.hpp"
#include "congest/metrics.hpp"
#include "graph/graph.hpp"

namespace dapsp::congest {

struct ReliableOptions {
  /// Max unacked data frames per directed link; further inner sends queue.
  std::size_t window = 16;
  /// Rounds before the first retransmission of an unacked frame (a data/ack
  /// round trip takes 2 rounds on a healthy link).
  Round backoff_base = 2;
  /// Retransmission interval doubles per resend up to this many rounds.
  Round backoff_cap = 32;
};

/// Per-node transport counters (deterministic under a seeded plan).
struct ReliableStats {
  std::uint64_t data_frames = 0;       ///< data transmissions incl. resends
  std::uint64_t retransmits = 0;
  std::uint64_t pure_acks = 0;         ///< acks that needed their own message
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t max_outstanding = 0;   ///< peak unacked+queued on one link

  ReliableStats& operator+=(const ReliableStats& o) {
    data_frames += o.data_frames;
    retransmits += o.retransmits;
    pure_acks += o.pure_acks;
    duplicates_dropped += o.duplicates_dropped;
    max_outstanding =
        max_outstanding > o.max_outstanding ? max_outstanding : o.max_outstanding;
    return *this;
  }
};

/// Wraps one node's inner protocol; one instance per node, engine-facing.
class ReliableTransport final : public Protocol {
 public:
  static constexpr std::uint32_t kTagData = 0x5254;  // "RT"
  static constexpr std::uint32_t kTagAck = 0x5241;   // "RA"

  ReliableTransport(const graph::Graph& g, NodeId self,
                    std::unique_ptr<Protocol> inner,
                    ReliableOptions opt = {});

  void init(Context& ctx) override;
  void send_phase(Context& ctx) override;
  void receive_phase(Context& ctx) override;
  bool quiescent() const override;
  Round next_send_round(Round now) const override;

  Protocol& inner() { return *inner_; }
  const Protocol& inner() const { return *inner_; }
  const ReliableStats& transport_stats() const { return stats_; }

 private:
  class RelSendContext;
  class RelRecvContext;

  struct Frame {
    std::uint64_t seq = 0;
    Message payload;          ///< wrapped wire message (ack field patched)
    Round next_resend = 0;
    Round backoff = 0;
    bool sent_once = false;
  };

  /// Outgoing state for the directed link to neighbor index j.
  struct SendLink {
    std::deque<Message> pending;  ///< inner messages awaiting a window slot
    std::deque<Frame> frames;     ///< unacked, ascending seq
    std::uint64_t next_seq = 1;
  };

  /// Incoming state for the link from neighbor index j.
  struct RecvLink {
    std::uint64_t cum = 0;  ///< highest contiguously delivered seq
    std::map<std::uint64_t, Message> buffered;  ///< out-of-order inner msgs
    bool ack_owed = false;
  };

  void enqueue_inner(std::size_t link, const Message& inner);
  void pump_link_sends(Context& ctx, Round now);
  std::size_t link_index(NodeId from) const;

  const graph::Graph& g_;
  NodeId self_;
  std::unique_ptr<Protocol> inner_;
  ReliableOptions opt_;
  std::vector<SendLink> out_;
  std::vector<RecvLink> in_;
  std::vector<Envelope> delivery_;  ///< this round's in-order inner inbox
  ReliableStats stats_;
};

/// Creates node `v`'s inner protocol.
using ReliableFactory = std::function<std::unique_ptr<Protocol>(NodeId node)>;

struct ReliableResult {
  RunStats stats;
  ReliableStats transport;  ///< summed over all nodes
};

/// Runs every node's inner protocol behind a ReliableTransport to
/// quiescence (or `options.max_rounds`).  Attach a FaultPlan through
/// `options.env.faults` to exercise the transport; `accessor`, if given, is
/// called per node with the finished transport so callers can read inner
/// protocol results.
ReliableResult run_reliable(
    const graph::Graph& g, const ReliableFactory& make, EngineOptions options,
    ReliableOptions transport_options = {},
    const std::function<void(NodeId, ReliableTransport&)>& accessor = {});

}  // namespace dapsp::congest
