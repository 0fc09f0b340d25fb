// Deterministic multi-instance scheduling (the CONGEST "congestion +
// dilation" framework).
//
// Section II-C of the paper runs one short-range instance per source and
// cites Ghaffari's randomized scheduling result [10] to execute all of them
// simultaneously in O(dilation + #instances * congestion) rounds.  This
// multiplexer is the deterministic counterpart: every node runs N protocol
// instances; their outgoing messages are FIFO-queued per link and drained at
// the CONGEST budget of one (wrapped) message per link per round.
//
// Instances see the physical round number, so schedule-driven protocols
// (Algorithm 2's ceil(d*gamma+l) rule) simply fire late when queueing delays
// them -- which is exactly how the framework's dilation+congestion bound
// arises.  Correctness of monotone protocols (adopt-the-minimum) is
// unaffected; the stats report how many rounds the schedule stretched.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "congest/engine.hpp"
#include "congest/metrics.hpp"
#include "graph/graph.hpp"

namespace dapsp::congest {

/// Creates instance `i`'s protocol for node `v`.
using InstanceFactory =
    std::function<std::unique_ptr<Protocol>(std::size_t instance, NodeId node)>;

/// Per-node multiplexing protocol.  Wraps each inner message as
/// (kTagMux, instance, inner tag, inner fields...); inner messages may use
/// at most Message::kMaxFields - 2 fields.
class MultiplexProtocol final : public Protocol {
 public:
  static constexpr std::uint32_t kTagMux = 0x4d55;  // "MU"

  MultiplexProtocol(const graph::Graph& g, NodeId self,
                    std::vector<std::unique_ptr<Protocol>> instances);

  void init(Context& ctx) override;
  void send_phase(Context& ctx) override;
  void receive_phase(Context& ctx) override;
  bool quiescent() const override;
  Round next_send_round(Round now) const override;

  Protocol& instance(std::size_t i) { return *instances_[i]; }
  const Protocol& instance(std::size_t i) const { return *instances_[i]; }

  /// Largest backlog any link queue reached (the measured congestion the
  /// framework trades rounds against).
  std::size_t max_queue_depth() const { return max_queue_; }

 private:
  class MuxSendContext;
  class MuxRecvContext;

  void pump_instances_send(Context& ctx);
  void drain_queues(Context& ctx);

  const graph::Graph& g_;
  NodeId self_;
  std::vector<std::unique_ptr<Protocol>> instances_;
  /// Per neighbor index: FIFO of wrapped messages awaiting budget.
  std::vector<std::deque<Message>> queue_;
  std::vector<std::vector<Envelope>> per_instance_inbox_;
  std::size_t max_queue_ = 0;
};

struct MultiplexResult {
  RunStats stats;
  std::size_t max_queue_depth = 0;  ///< max link backlog across all nodes
};

/// Runs `instances` protocol instances per node to completion.
/// `accessor`, if given, is called per node with the finished multiplexer so
/// callers can extract instance results.
MultiplexResult run_multiplexed(
    const graph::Graph& g, std::size_t instances, const InstanceFactory& make,
    Round max_rounds,
    const std::function<void(NodeId, MultiplexProtocol&)>& accessor = {},
    const RunEnv& env = {});

}  // namespace dapsp::congest
