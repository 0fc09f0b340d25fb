#include "net/coordinator.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "congest/plane.hpp"
#include "graph/io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace dapsp::net {

namespace {

using congest::BlockReader;
using congest::block_put_u32;
using congest::block_put_u64;
using graph::NodeId;
using service::DistanceOracle;

std::string range_str(ShardRange r) {
  return "[" + std::to_string(r.lo) + "," + std::to_string(r.hi) + ")";
}

/// The loud partition error the acceptance criteria demand: it always names
/// the dead shard and its vertex range.
[[noreturn]] void partition_error(std::uint32_t rank, ShardRange range,
                                  const std::string& what) {
  throw std::runtime_error("socket backend: partition: worker " +
                           std::to_string(rank) + " (nodes " +
                           range_str(range) + ") " + what);
}

[[noreturn]] void divergence_error(const std::string& what) {
  throw std::runtime_error("socket backend: replica divergence: " + what);
}

[[noreturn]] void protocol_error(const std::string& what) {
  throw std::runtime_error("socket backend: protocol violation: " + what);
}

struct WorkerProc {
  pid_t pid = -1;
  Socket sock;
  ShardRange range;
};

/// Owns the worker processes; any exit path (including exceptions) kills
/// and reaps whatever is still alive so a failed build never leaks
/// orphans or zombies.
class Fleet {
 public:
  ~Fleet() {
    for (WorkerProc& w : procs) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
    }
    for (WorkerProc& w : procs) {
      if (w.pid > 0) {
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        w.pid = -1;
      }
    }
  }

  /// Graceful reap after BYE: give each worker `timeout_ms` to exit on its
  /// own, then SIGKILL stragglers.  Clears pids so the destructor no-ops.
  void reap(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (WorkerProc& w : procs) {
      if (w.pid <= 0) continue;
      for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid) {
          w.pid = -1;
          break;
        }
        if (r < 0 && errno != EINTR) {
          w.pid = -1;
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(w.pid, SIGKILL);
          while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
          }
          w.pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  std::vector<WorkerProc> procs;
};

Endpoint make_endpoint(bool tcp) {
  Endpoint ep;
  if (tcp) {
    ep.is_unix = false;
    ep.host = "127.0.0.1";
    ep.port = 0;  // kernel-assigned; Listener reports the real one
  } else {
    static std::atomic<unsigned> seq{0};
    ep.is_unix = true;
    ep.path = "/tmp/dapsp-net-" + std::to_string(::getpid()) + "-" +
              std::to_string(seq.fetch_add(1)) + ".sock";
  }
  return ep;
}

pid_t spawn_worker(const std::string& binary, const std::string& connect_spec,
                   std::uint32_t rank, std::uint32_t timeout_ms) {
  const std::string rank_str = std::to_string(rank);
  const std::string timeout_str = std::to_string(timeout_ms);
  std::vector<std::string> args = {binary,   "worker",
                                   "--connect", connect_spec,
                                   "--rank",    rank_str,
                                   "--net-timeout-ms", timeout_str};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("socket backend: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child.  Only async-signal-safe calls until exec (the parent may be
    // multithreaded -- gtest is).  PDEATHSIG guarantees no orphan worker
    // survives a coordinator that dies without running its destructors.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent died before prctl
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; 127 = "command not found" convention
  }
  return pid;
}

}  // namespace

DistanceOracle socket_build_oracle(const graph::Graph& g,
                                   const service::OracleBuildOptions& build,
                                   const SocketBackendOptions& opts,
                                   SocketRunReport* report) {
  const NodeId n = g.node_count();
  if (n == 0) {
    throw std::runtime_error("socket backend: empty graph");
  }
  if (opts.workers == 0 || opts.workers > 256) {
    throw std::runtime_error("socket backend: worker count must be in [1, 256]");
  }
  ignore_sigpipe();
  const std::uint32_t W = opts.workers;
  const int tmo = static_cast<int>(opts.timeout_ms);
  SocketRunReport rep;

  std::string graph_text;
  {
    std::ostringstream os;
    graph::write_graph(os, g);
    graph_text = os.str();
  }

  Listener listener(make_endpoint(opts.tcp));
  const std::string spec = listener.bound().spec();
  const std::string binary =
      opts.worker_binary.empty() ? std::string("/proc/self/exe")
                                 : opts.worker_binary;

  Fleet fleet;
  fleet.procs.resize(W);
  for (std::uint32_t r = 0; r < W; ++r) {
    fleet.procs[r].range = shard_range(n, r, W);
    fleet.procs[r].pid = spawn_worker(binary, spec, r, opts.timeout_ms);
  }

  const auto count_frame = [&rep](const std::string& payload) {
    ++rep.frames;
    rep.wire_bytes += 5 + payload.size();
  };
  const auto send_to = [&](std::uint32_t r, FrameType type,
                           const std::string& payload) {
    try {
      write_frame(fleet.procs[r].sock.fd(), type, payload);
      count_frame(payload);
    } catch (const SocketClosed&) {
      partition_error(r, fleet.procs[r].range,
                      std::string("died (connection closed while sending ") +
                          frame_type_name(type) + ")");
    }
  };

  // Rendezvous: accept W connections, identify each by its HELLO rank.
  std::vector<bool> seen(W, false);
  for (std::uint32_t i = 0; i < W; ++i) {
    Socket s = listener.accept_within(tmo);
    std::optional<Frame> f = read_frame(s.fd(), tmo);
    if (!f || f->type != FrameType::kHello) {
      protocol_error("expected HELLO from a connecting worker");
    }
    count_frame(f->payload);
    BlockReader r(f->payload);
    const std::uint32_t rank = r.u32();
    if (!r.ok() || !r.done() || rank >= W || seen[rank]) {
      protocol_error("bad HELLO rank");
    }
    seen[rank] = true;
    fleet.procs[rank].sock = std::move(s);
  }

  for (std::uint32_t r = 0; r < W; ++r) {
    JobSpec job;
    job.rank = r;
    job.workers = W;
    job.solver = static_cast<std::uint32_t>(build.solver);
    job.h = build.h;
    job.eps = build.eps;
    job.dense = false;
    job.engine_threads = opts.engine_threads;
    job.timeout_ms = opts.timeout_ms;
    job.crash_at = (opts.crash_at != 0 && r == opts.crash_rank)
                       ? opts.crash_at
                       : 0;
    job.graph_text = graph_text;
    std::string payload;
    encode_job(payload, job);
    send_to(r, FrameType::kJob, payload);
  }

  // Lockstep loop: one frame from every worker, all of the same type.
  std::vector<Frame> frames(W);
  const auto read_all = [&](const char* waiting_for) {
    for (std::uint32_t r = 0; r < W; ++r) {
      const WorkerProc& w = fleet.procs[r];
      try {
        std::optional<Frame> f = read_frame(w.sock.fd(), tmo);
        if (!f) {
          partition_error(r, w.range,
                          std::string("died (connection closed while the "
                                      "coordinator waited for ") +
                              waiting_for + ")");
        }
        count_frame(f->payload);
        frames[r] = std::move(*f);
      } catch (const SocketTimeout&) {
        partition_error(r, w.range,
                        std::string("timed out (no ") + waiting_for +
                            " within " + std::to_string(tmo) + " ms)");
      } catch (const SocketClosed& e) {
        partition_error(r, w.range, std::string("died (") + e.what() + ")");
      }
    }
    for (std::uint32_t r = 0; r < W; ++r) {
      if (frames[r].type == FrameType::kAbort) {
        throw std::runtime_error("socket backend: worker " +
                                 std::to_string(r) + " (nodes " +
                                 range_str(fleet.procs[r].range) +
                                 ") aborted: " + frames[r].payload);
      }
    }
    for (std::uint32_t r = 1; r < W; ++r) {
      if (frames[r].type != frames[0].type) {
        divergence_error(std::string("worker 0 sent ") +
                         frame_type_name(frames[0].type) + " while worker " +
                         std::to_string(r) + " sent " +
                         frame_type_name(frames[r].type));
      }
    }
  };

  std::string deliver;
  std::uint64_t run_wire_bytes = 0;
  int run_depth = 0;
  bool runs_nested = false;  // disables the per-run byte cross-check
  for (;;) {
    read_all("the next lockstep frame");
    bool results = false;
    switch (frames[0].type) {
      case FrameType::kRunBegin: {
        for (std::uint32_t r = 1; r < W; ++r) {
          if (frames[r].payload != frames[0].payload) {
            divergence_error("RUN_BEGIN payloads differ (engines constructed "
                             "out of lockstep)");
          }
        }
        ++rep.engine_runs;
        if (++run_depth > 1) runs_nested = true;
        break;
      }
      case FrameType::kRound: {
        // payload: u32 run_idx | u64 round | u64 digest | owned slice.
        constexpr std::size_t kPrefix = 4 + 8 + 8;
        if (frames[0].payload.size() < kPrefix + 4) {
          protocol_error("short ROUND payload");
        }
        const std::string_view prefix0 =
            std::string_view(frames[0].payload).substr(0, kPrefix);
        for (std::uint32_t r = 1; r < W; ++r) {
          if (frames[r].payload.size() < kPrefix + 4 ||
              std::string_view(frames[r].payload).substr(0, kPrefix) !=
                  prefix0) {
            divergence_error(
                "round digests disagree -- replicas executed different "
                "rounds");
          }
        }
        BlockReader pr(prefix0);
        pr.u32();  // run_idx
        pr.u64();  // round
        const std::uint64_t digest = pr.u64();

        // Reassemble the canonical block: total sender count, then every
        // worker's owned records in rank order (ranges ascend, so senders
        // come out ascending -- exactly the engine's encoding order).
        deliver.clear();
        block_put_u32(deliver, 0);
        std::uint32_t total = 0;
        for (std::uint32_t r = 0; r < W; ++r) {
          const std::string_view slice =
              std::string_view(frames[r].payload).substr(kPrefix);
          BlockReader sr(slice);
          total += sr.u32();
          deliver.append(slice.substr(4));
        }
        congest::block_patch_u32(deliver, 0, total);
        // The reassembly must hash to what every replica computed locally;
        // anything else means a shard shipped senders that disagree with
        // the shadow execution.
        if (congest::fnv1a64(deliver) != digest) {
          divergence_error("reassembled round block does not match the "
                           "replicas' digest");
        }
        run_wire_bytes += block_message_bytes(deliver);
        for (std::uint32_t r = 0; r < W; ++r) {
          send_to(r, FrameType::kDeliver, deliver);
        }
        ++rep.round_exchanges;
        break;
      }
      case FrameType::kRunEnd: {
        for (std::uint32_t r = 1; r < W; ++r) {
          if (frames[r].payload != frames[0].payload) {
            divergence_error("RUN_END stats differ between replicas");
          }
        }
        BlockReader sr(frames[0].payload);
        sr.u32();  // run_idx
        const congest::RunStats stats = parse_run_stats(sr);
        if (!sr.done()) protocol_error("trailing bytes after RUN_END stats");
        --run_depth;
        // Runtime invariant of the whole design: the engine's
        // message_bytes stat counts exactly the bytes that crossed the
        // wire (8 + 8*used per message).  The coordinator measured the
        // latter independently, so any drift fails the build.
        if (!runs_nested && run_depth == 0 &&
            stats.message_bytes != run_wire_bytes) {
          throw std::runtime_error(
              "socket backend: wire byte accounting mismatch: engine "
              "reported " + std::to_string(stats.message_bytes) +
              " message bytes but " + std::to_string(run_wire_bytes) +
              " crossed the wire");
        }
        if (run_depth == 0) run_wire_bytes = 0;
        break;
      }
      case FrameType::kResultMeta:
        results = true;
        break;
      default:
        protocol_error(std::string("unexpected ") +
                       frame_type_name(frames[0].type) +
                       " in the lockstep phase");
    }
    if (results) break;
  }

  // Results phase: frames[] holds each worker's RESULT_META.
  // payload: u32 row_lo | u32 row_hi | u32 chunks | shared blob.
  std::string_view shared0;
  std::vector<std::uint32_t> chunk_counts(W, 0);
  for (std::uint32_t r = 0; r < W; ++r) {
    BlockReader mr(frames[r].payload);
    const std::uint32_t row_lo = mr.u32();
    const std::uint32_t row_hi = mr.u32();
    chunk_counts[r] = mr.u32();
    if (!mr.ok()) protocol_error("short RESULT_META");
    const ShardRange want = fleet.procs[r].range;
    if (row_lo != want.lo || row_hi != want.hi) {
      protocol_error("worker " + std::to_string(r) +
                     " claims rows [" + std::to_string(row_lo) + "," +
                     std::to_string(row_hi) + ") but owns " +
                     range_str(want));
    }
    const std::string_view shared =
        std::string_view(frames[r].payload).substr(12);
    if (r == 0) {
      shared0 = shared;
    } else if (shared != shared0) {
      divergence_error("RESULT_META oracle metadata differs between "
                       "replicas");
    }
  }
  BlockReader mr(shared0);
  const std::uint32_t meta_n = mr.u32();
  const std::string_view exact_b = mr.bytes(1);
  const std::string_view next_b = mr.bytes(1);
  const std::string label = read_string(mr);
  service::OracleMeta meta;
  meta.label = label;
  meta.exact = !exact_b.empty() && exact_b[0] != '\0';
  const bool has_next = !next_b.empty() && next_b[0] != '\0';
  meta.stats = parse_run_stats(mr);
  if (!mr.ok() || !mr.done() || meta_n != n) {
    protocol_error("malformed RESULT_META shared blob");
  }

  const std::size_t cells = static_cast<std::size_t>(n) * n;
  service::Table<graph::Weight> dist(cells, 0);
  service::Table<NodeId> next(has_next ? cells : 0, graph::kNoNode);
  const std::size_t row_bytes = static_cast<std::size_t>(n) * 8 +
                                (has_next ? static_cast<std::size_t>(n) * 4
                                          : 0);
  for (std::uint32_t r = 0; r < W; ++r) {
    const WorkerProc& w = fleet.procs[r];
    const auto read_one = [&](const char* waiting_for) -> Frame {
      try {
        std::optional<Frame> f = read_frame(w.sock.fd(), tmo);
        if (!f) {
          partition_error(r, w.range,
                          std::string("died (connection closed while the "
                                      "coordinator waited for ") +
                              waiting_for + ")");
        }
        count_frame(f->payload);
        return std::move(*f);
      } catch (const SocketTimeout&) {
        partition_error(r, w.range, std::string("timed out (no ") +
                                        waiting_for + ")");
      } catch (const SocketClosed& e) {
        partition_error(r, w.range, std::string("died (") + e.what() + ")");
      }
    };
    std::uint64_t digest = kFnvBasis;
    NodeId expect = w.range.lo;
    for (std::uint32_t c = 0; c < chunk_counts[r]; ++c) {
      const Frame f = read_one("result rows");
      if (f.type == FrameType::kAbort) {
        throw std::runtime_error("socket backend: worker " +
                                 std::to_string(r) + " aborted: " + f.payload);
      }
      if (f.type != FrameType::kResultRows) {
        protocol_error(std::string("expected RESULT_ROWS, got ") +
                       frame_type_name(f.type));
      }
      BlockReader cr(f.payload);
      const std::uint32_t row_lo = cr.u32();
      const std::uint32_t count = cr.u32();
      if (!cr.ok() || row_lo != expect || count == 0 ||
          row_lo + count > w.range.hi ||
          cr.remaining() != row_bytes * count) {
        protocol_error("malformed RESULT_ROWS chunk");
      }
      digest = fnv1a64_acc(digest, std::string_view(f.payload).substr(8));
      for (std::uint32_t i = 0; i < count; ++i) {
        const NodeId u = row_lo + i;
        graph::Weight* drow = dist.data() + static_cast<std::size_t>(u) * n;
        for (NodeId v = 0; v < n; ++v) {
          drow[v] = static_cast<graph::Weight>(cr.u64());
        }
        if (has_next) {
          NodeId* nrow = next.data() + static_cast<std::size_t>(u) * n;
          for (NodeId v = 0; v < n; ++v) nrow[v] = cr.u32();
        }
      }
      expect += count;
    }
    if (expect != w.range.hi) {
      protocol_error("worker " + std::to_string(r) +
                     " shipped fewer rows than it owns");
    }
    const Frame f = read_one("DONE");
    if (f.type != FrameType::kDone) {
      protocol_error(std::string("expected DONE, got ") +
                     frame_type_name(f.type));
    }
    BlockReader dr(f.payload);
    const std::uint64_t want_digest = dr.u64();
    if (!dr.ok() || !dr.done()) protocol_error("malformed DONE payload");
    if (want_digest != digest) {
      divergence_error("result row digest mismatch for worker " +
                       std::to_string(r));
    }
  }

  for (std::uint32_t r = 0; r < W; ++r) {
    try {
      write_frame(fleet.procs[r].sock.fd(), FrameType::kBye, {});
      count_frame({});
    } catch (const SocketClosed&) {
      // Worker already gone after delivering everything; reap handles it.
    }
  }
  fleet.reap(5000);

  if (report != nullptr) *report = rep;
  return DistanceOracle(n, std::move(dist), std::move(next), std::move(meta));
}

}  // namespace dapsp::net
