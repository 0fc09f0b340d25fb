// Synchronous CONGEST round engine.
//
// Executes one `Protocol` instance per node in lockstep rounds that match
// the paper's algorithm structure: send at the start of a round, receive at
// the end of the same round.  One round body, `step()`, runs every round:
//   send:     round 0's send step is Protocol::init (the paper's algorithms
//             mostly stay silent here; Algorithm 2's source does send), and
//             round r's is send_phase, which may send along incident links
//             based on state from the end of round r-1;
//   deliver:  every message sent this round reaches its receiver's inbox;
//   receive:  receive_phase sees every message delivered this round via
//             Context::inbox(); sending here is an error.
// This send/receive split matters: with zero-weight edges a pipelined
// entry's scheduled send round can equal its arrival round, so an engine
// that delivered messages one round later would miss schedules forever.
//
// Within a round all nodes run concurrently on a thread pool; delivery
// fills every inbox in (sender id, send order) order, so parallel and
// single-threaded executions are bit-identical.
//
// Which nodes run a phase is a node set, not a code path.  Round 0 runs
// init at every node.  A sparse round (the default) runs send_phase only at
// the nodes whose `next_send_round()` hint names it: most algorithms leave
// almost every node idle in almost every round -- Algorithm 1's
// ceil(kappa + pos) schedule sends at most one message per node per round
// and whole stretches of rounds are silent.  `RunEnv::dense` keeps the
// exhaustive schedule, send_phase at every node every round, as the
// correctness oracle.  receive_phase runs at every node in round 0 and in
// dense rounds, and otherwise (and always under faults) only at nodes whose
// inbox is non-empty.  `Engine::run` additionally fast-forwards the round
// counter across provably silent gaps.  Round/message/congestion statistics
// are bit-identical to the dense schedule (see docs/PERF.md for the
// argument).
//
// Termination: the engine stops at `max_rounds`, or earlier when no message
// is in flight and every protocol reports `quiescent()` -- i.e. it would
// never spontaneously send again without new input.  Quiescence detection is
// a simulator-level convenience (a global observer); the algorithms' own
// termination arguments are their round bounds, which tests assert.
#pragma once

#include <chrono>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

#include "congest/message.hpp"
#include "congest/metrics.hpp"
#include "graph/graph.hpp"

namespace dapsp::obs {
class TraceRecorder;
struct TraceEvent;
}  // namespace dapsp::obs

namespace dapsp::congest {

class Engine;
struct FaultPlan;
class FaultPlane;

/// Per-node, per-round view handed to protocol code.
///
/// Abstract so that protocol instances can run either directly on the
/// engine or behind the multiplexer (congest/multiplex.hpp), which queues
/// their sends to respect the one-message-per-link-per-round budget.
class Context {
 public:
  virtual ~Context() = default;

  NodeId self() const noexcept { return self_; }
  Round round() const noexcept { return round_; }
  virtual NodeId node_count() const noexcept = 0;

  /// Communication neighbors (sorted ascending).
  virtual std::span<const NodeId> neighbors() const noexcept = 0;

  /// Messages sent to this node in this round's send phase, ordered by
  /// (sender id, send order).  Empty during the send phase.
  std::span<const Envelope> inbox() const noexcept { return inbox_; }

  /// Sends `m` along the link to `to` (must be a neighbor).  Only legal in
  /// init / send_phase; throws in receive_phase.
  virtual void send(NodeId to, const Message& m) = 0;

  /// Sends `m` along every incident link.
  virtual void broadcast(const Message& m) = 0;

 protected:
  Context(NodeId self, Round round, std::span<const Envelope> inbox,
          bool may_send)
      : self_(self), round_(round), inbox_(inbox), may_send_(may_send) {}
  Context(const Context&) = default;
  Context& operator=(const Context&) = default;

  NodeId self_;
  Round round_;
  std::span<const Envelope> inbox_;
  bool may_send_;
};

/// Node-local protocol logic.  Implementations own only their node's state;
/// the engine guarantees each phase runs exactly once per node per round.
class Protocol {
 public:
  /// Sentinel for next_send_round: the node will never send spontaneously
  /// (it may still be woken by an incoming message).
  static constexpr Round kNeverSends = std::numeric_limits<Round>::max();

  virtual ~Protocol() = default;

  /// Round 0 setup; acts as round 0's send step (sending allowed).
  virtual void init(Context& /*ctx*/) {}

  /// Start of round r: may send, inbox empty.
  virtual void send_phase(Context& /*ctx*/) {}

  /// End of round r: sees everything sent this round, may not send.
  virtual void receive_phase(Context& /*ctx*/) {}

  /// True if, absent further incoming messages, this node will never send
  /// again.  Default suits purely reactive protocols.
  virtual bool quiescent() const { return true; }

  /// Sparse-scheduler hint: the earliest round > `now` in which this node
  /// might send spontaneously (i.e. without receiving anything further), or
  /// kNeverSends if it will stay silent until a message arrives.  The engine
  /// queries every node once at the end of round 0, then re-queries after
  /// every send_phase / receive_phase the node runs, and runs send_phase
  /// exactly in the round the latest answer names.  An arriving message
  /// runs receive_phase, not send_phase: only the hint re-queried after it
  /// can bring the node's next send_phase forward.
  ///
  /// The default, "next round, always", reproduces the dense schedule
  /// exactly, so protocols without a hint behave as before (every round).
  ///
  /// Contract (required for sparse/dense bit-identical stats; see
  /// docs/PERF.md): the hint must never be later than the node's true next
  /// spontaneous send, and in rounds where the node neither sends nor
  /// receives, `send_phase` must be a no-op on observable state and
  /// `quiescent()` must not change.  `receive_phase` with an empty inbox
  /// must likewise be a no-op (the sparse engine skips it).
  virtual Round next_send_round(Round now) const { return now + 1; }
};

/// Where one run executes and who observes it.  A caller passes one value
/// down to every engine its run builds (solver entry points take it as a
/// params field or a trailing argument), so concurrent runs never see each
/// other's threads, schedule, recorder or fault plan.
struct RunEnv {
  /// Threads of the run's pool (util::run_pool), which runs the engine's
  /// node phases and the reference closure's rows; 0 = use the
  /// process-global pool.  Results are bit-identical for every value
  /// (tested).
  std::size_t threads = 0;
  /// Pin the resolved pool's worker threads round-robin across CPUs
  /// (Linux-only; a no-op elsewhere).  Pure scheduling hint: results are
  /// bit-identical with pinning on or off.
  bool pin = false;
  /// Run every node every round (the original exhaustive schedule) instead
  /// of the sparse active-set scheduler.  Kept as the correctness oracle:
  /// stats and protocol outcomes are bit-identical either way (tested).
  bool dense = false;
  /// Optional per-round trace recorder (not owned; must outlive the run).
  /// Receives one event per executed round -- message count, top-K link
  /// congestion, phase wall-clock -- and one event per fast-forwarded gap;
  /// see obs/trace.hpp.  Null (the default) costs nothing: deterministic
  /// stats and solver outputs are identical with the recorder on or off
  /// (tested).
  obs::TraceRecorder* recorder = nullptr;
  /// Optional fault plan (not owned; must outlive the run).  Null, or a
  /// plan with no fault enabled, costs nothing: the engine never constructs
  /// the fault plane and delivers every message straight to its inbox, so
  /// outputs and RunStats are bit-identical to a faultless build (tested).  See
  /// congest/faults.hpp for semantics.
  const FaultPlan* faults = nullptr;
};

struct EngineOptions {
  Round max_rounds = 1'000'000;
  bool record_per_round = false;
  /// Deterministically permute each inbox instead of delivering in
  /// (sender, send order).  The CONGEST model does not promise any arrival
  /// order; tests flip this to prove protocols only rely on message
  /// *content*.  Seeded per (receiver, round), so runs stay reproducible.
  bool scramble_inbox = false;
  RunEnv env{};
};

/// The engine's concrete per-node Context.  One instance per node lives for
/// the whole run and is re-bound per phase (no per-phase construction); it
/// also caches the last resolved link slot so repeated sends to the same
/// neighbor (parent pointers, pipelined relays) skip the binary search.
class NodeContext final : public Context {
 public:
  NodeContext(Engine& e, NodeId self)
      : Context(self, 0, {}, false), engine_(&e) {}
  NodeContext(const NodeContext&) = default;
  NodeContext& operator=(const NodeContext&) = default;

  NodeId node_count() const noexcept override;
  std::span<const NodeId> neighbors() const noexcept override;
  void send(NodeId to, const Message& m) override;
  void broadcast(const Message& m) override;

  /// Engine plumbing: repoint this context at a new phase.
  void rebind(Round round, std::span<const Envelope> inbox,
              bool may_send) noexcept {
    round_ = round;
    inbox_ = inbox;
    may_send_ = may_send;
  }

 private:
  Engine* engine_;
  NodeId last_to_ = graph::kNoNode;  // send-slot cache
  std::size_t last_slot_ = 0;
};

class Engine {
 public:
  /// `protocols` must contain exactly one entry per node.
  Engine(const graph::Graph& g,
         std::vector<std::unique_ptr<Protocol>> protocols,
         EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs to quiescence or the round limit; returns accumulated stats.
  /// May be called once per engine.
  RunStats run();

  /// Executes exactly one round -- round 0 on the first call -- and returns
  /// the number of messages sent in it.  The engine's only round body:
  /// run() calls it too.  Never fast-forwards: a silent round advances the
  /// counter by exactly one.
  std::uint64_t step();

  const graph::Graph& graph() const noexcept { return graph_; }
  Protocol& protocol(NodeId v) { return *protocols_[v]; }
  const Protocol& protocol(NodeId v) const { return *protocols_[v]; }
  /// Hands the protocols back after run(); the engine is spent after this.
  std::vector<std::unique_ptr<Protocol>> release_protocols() noexcept {
    return std::move(protocols_);
  }
  const RunStats& stats() const noexcept { return stats_; }
  Round current_round() const noexcept { return round_; }

  /// Benchmark shim, the one process-wide setting left: every engine
  /// constructed afterwards runs on `threads` worker threads whatever its
  /// RunEnv says; kNoThreadOverride clears it.  It exists only because
  /// perfbench's congest_apsp workload, which predates RunEnv, calls it
  /// before build_oracle.  Nothing else may call it.
  static constexpr std::size_t kNoThreadOverride =
      std::numeric_limits<std::size_t>::max();
  static void set_force_threads(std::size_t threads) noexcept;

  /// Heap bytes currently reserved by the reusable message plane (outbox
  /// logs, inboxes, scheduler and accounting scratch).  All of it is
  /// grow-only across rounds, so once a run reaches steady state this value
  /// stops changing -- the zero-allocation tests assert exactly that.  Host
  /// observability, never part of the deterministic stats.
  std::size_t plane_capacity_bytes() const;

  // Low-level send plumbing for Context implementations (not for protocol
  // code; protocols must go through Context so the phase rules hold).
  std::size_t link_slot(NodeId from, NodeId to) const;
  std::size_t link_base(NodeId v) const { return link_base_[v]; }
  void enqueue(NodeId from, std::size_t slot, const Message& m);

 private:
  using ClockTp = std::chrono::steady_clock::time_point;

  enum class Phase { kInit, kSend, kReceive };

  /// Runs phase P at every node of `nodes` on the pool: skips a down node
  /// (init and send only), rebinds its context and, when profiling, times
  /// it.  The phase is a template argument, so no node pays a phase branch.
  template <Phase P>
  void run_phase(std::span<const NodeId> nodes);
  /// Delivers this round's sends in one walk over the senders' logs,
  /// accounting each message as it goes.  `senders` is the round's send
  /// set: all_nodes_, or the sparse active set, whose senders deliver()
  /// sorts.
  /// `t_start` is the timestamp taken at the end of the send phase (which
  /// doubles as delivery start); deliver() reads the clock once at its end
  /// and returns that timestamp so the caller can time the receive phase
  /// off it.  Together with the run-loop tick chaining (round end doubles
  /// as next round's start, see last_tick_) a steady-state round reads the
  /// clock 3 times instead of 6.
  ClockTp deliver(std::span<const NodeId> senders, ClockTp t_start);
  /// Applies the per-(receiver, round) scramble permutation to v's inbox.
  void scramble_inbox(NodeId v);
  bool all_quiescent() const;
  /// Re-queries quiescent() for `nodes` (every node in round 0, this round's
  /// senders and receivers after it) and folds the result into the cached
  /// non-quiescent count; idempotent, so overlapping spans are harmless.
  /// Sound because the Protocol contract (see next_send_round) forbids
  /// quiescent() changing in a round where the node neither sent nor
  /// received.  Disabled under faults, where down-forever nodes need the
  /// bespoke scan.
  void refresh_quiescence(std::span<const NodeId> nodes);
  /// Emits one obs::WorkItem per node that sent or received this round --
  /// a set (and ordering: node id ascending) that is identical for both
  /// schedulers and every thread count, so the critical path extracted
  /// from the items is bit-identical too.  Called at the end of every
  /// executed round when `profile_` is set.
  void record_work_items();
  /// Adds `ns` of node-local phase time for this round (worker-thread safe:
  /// each worker touches only its own node's slot).
  void profile_node(NodeId v, std::uint64_t ns) noexcept;

  // --- sparse scheduler ---
  void schedule(NodeId v, Round wake);
  void reschedule_after_phase(std::span<const NodeId> nodes);
  void build_active_set();
  Round next_heap_wake();
  void skip_silent_rounds(Round count);

  const graph::Graph& graph_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  EngineOptions options_;
  bool dense_ = false;
  obs::TraceRecorder* recorder_ = nullptr;  // options_.env.recorder
  /// Constructed only when an enabled plan was attached; every fault branch
  /// in the engine is guarded on this being non-null.
  std::unique_ptr<FaultPlane> faults_;
  obs::TraceEvent* trace_event_ = nullptr;  // this round's slot, if recording
  std::unique_ptr<util::ThreadPool> own_pool_;  // when an explicit count is set
  util::ThreadPool* pool_ = nullptr;            // resolved once, never rechecked
  RunStats stats_;
  Round round_ = 0;
  bool init_done_ = false;
  /// Round-boundary tick chaining, active only inside run(): the timestamp
  /// taken at the end of a round's receive phase doubles as the next
  /// round's send-phase start, saving one clock read per round.  External
  /// step() callers keep fresh starts -- otherwise the wall time they spend
  /// between calls would be billed to send_seconds.
  bool chain_ticks_ = false;
  ClockTp last_tick_{};

  // --- message plane: one send-order log per sender ---
  //
  // Each sender appends whole messages and their link slots to its outbox
  // in send order; link_cnt_ counts each link's messages this round.
  // deliver() walks the logs once, in ascending sender order.  A receiver
  // has one link per sender, so appending each message to its link's
  // receiver yields every inbox in (sender id, send order) order.  All
  // buffers are reused across rounds, so after warm-up a round allocates
  // nothing (plane_capacity_bytes() proves it).
  struct Outbox {
    std::vector<std::uint32_t> slots;    ///< link slot per send
    std::vector<Message> msgs;           ///< parallel to `slots`
    std::vector<std::uint32_t> touched;  ///< distinct slots, first-touch order
  };
  std::vector<std::size_t> link_base_;       // per node, into link arrays
  std::vector<NodeId> link_target_;          // receiver of each directed link
  std::vector<std::uint32_t> link_cnt_;      // messages this round, per link
  std::vector<std::uint64_t> link_lifetime_count_;  // per link, whole run
  std::vector<Outbox> out_;                  // per sender, reused
  std::vector<NodeId> all_nodes_;            // 0..n-1: the every-node set
  std::vector<std::uint8_t> sent_mark_;      // sender had sends this round
  std::vector<NodeId> touched_senders_;      // senders with messages, per round
  std::vector<std::uint32_t> sent_counts_;   // messages per touched sender
  std::uint64_t round_messages_ = 0;         // messages this round

  // --- quiescence cache ---
  //
  // all_quiescent() used to scan every protocol on every silent executed
  // round -- the dominant cost of sparse pipelined runs (profiled at ~32% of
  // CPU on cycle/4096).  The Protocol contract pins quiescent() transitions
  // to rounds where the node sends or receives, so the engine keeps a
  // per-node flag plus a non-quiescent count and re-queries only this
  // round's senders and receivers.  Off under faults (crash semantics need
  // the bespoke scan).
  bool track_quiet_ = false;
  std::vector<std::uint8_t> quiet_;   // 1 = quiescent as of last query
  std::uint64_t nonquiet_ = 0;        // number of zeros in quiet_ (n at start)

  // Invariant between rounds (faultless path): every inbox is empty except
  // those of the most recent round's receivers_.  deliver() clears exactly
  // that list up front, so delivery touches O(senders + receivers) state
  // instead of all n inboxes -- on the dense path too, whose exhaustive
  // receive loop then reads empty spans for non-receivers (a no-op by the
  // Protocol contract).
  std::vector<std::vector<Envelope>> inbox_;
  std::vector<NodeId> receivers_;         // non-empty inboxes this round
  std::vector<std::uint8_t> inbox_mark_;  // receivers_ dedup (fault path)

  // --- work-item recording (critical-path profiler feed) ---
  //
  // Latched true when the recorder asks for work items; all vectors below
  // are sized only then, so a non-profiling run pays one predictable branch
  // per node phase.  Per-node wall-clock is written by each pool worker
  // into its own node's slot (race-free) and tagged with round_ + 1 so
  // stale values from earlier rounds can never leak into a later item.
  bool profile_ = false;
  std::vector<std::uint64_t> node_ns_;       // this round's phase time
  std::vector<Round> node_ns_round_;         // tag: round_ + 1; 0 = never
  std::vector<Round> last_item_round_;       // tag: round_ + 1; 0 = none
  std::vector<NodeId> profile_receivers_;    // sorted scratch
  std::vector<std::pair<std::uint64_t, std::uint32_t>>
      link_scratch_;                      // (count, slot) top-K staging

  // --- active-set scheduler state ---
  //
  // wake_round_[v] is authoritative; 0 means "activated this round, will be
  // re-scheduled after its phase" (real wakes are always >= 1).  Nodes due
  // exactly next round go on active_next_ (the dense-default fast path, no
  // heap traffic); later wakes go through a lazy min-heap whose stale
  // entries are dropped on pop by comparing against wake_round_.  A node
  // holds one live wake: re-hinting the wake it holds queues nothing, so
  // only a moved wake leaves a stale entry behind.
  std::vector<Round> wake_round_;
  std::vector<std::pair<Round, NodeId>> heap_;  // min-heap on Round
  std::vector<NodeId> active_next_;
  std::vector<std::uint8_t> in_next_;
  std::vector<NodeId> active_now_;

  std::vector<NodeContext> contexts_;  // one per node, reused every phase
};

/// A finished run_nodes run: the engine's stats and every node's protocol.
template <typename P>
struct NodeRun {
  RunStats stats;
  std::vector<std::unique_ptr<Protocol>> protocols;
  /// Node v's protocol, as the type run_nodes built it with.
  P& node(NodeId v) const { return static_cast<P&>(*protocols[v]); }
};

/// The one way to run a protocol at every node: builds `make(v)`, a
/// std::unique_ptr<P>, at each node of g, runs an engine with `options` to
/// quiescence or its round limit, and returns the stats and the protocols.
template <typename Make>
auto run_nodes(const graph::Graph& g, EngineOptions options, Make&& make) {
  using P = typename std::invoke_result_t<Make&, NodeId>::element_type;
  std::vector<std::unique_ptr<Protocol>> procs;
  procs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) procs.push_back(make(v));
  Engine engine(g, std::move(procs), options);
  NodeRun<P> out;
  out.stats = engine.run();
  out.protocols = engine.release_protocols();
  return out;
}

}  // namespace dapsp::congest
