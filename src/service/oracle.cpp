#include "service/oracle.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "baseline/bf_apsp.hpp"
#include "congest/faults.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/pipelined_ssp.hpp"
#include "core/scaled_apsp.hpp"
#include "graph/properties.hpp"
#include "obs/trace.hpp"
#include "seq/dijkstra.hpp"
#include "util/int_math.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::service {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

namespace {

/// Indexed by Solver.
constexpr const char* kSolverNames[] = {"pipelined", "blocker",   "scaled",
                                        "approx",    "reference", "bf"};
static_assert(std::size(kSolverNames) ==
              static_cast<std::size_t>(Solver::kBellmanFord) + 1);

}  // namespace

const char* solver_name(Solver s) {
  return kSolverNames[static_cast<std::size_t>(s)];
}

std::optional<Solver> parse_solver(std::string_view word) {
  for (std::size_t i = 0; i < std::size(kSolverNames); ++i) {
    if (word == kSolverNames[i]) return static_cast<Solver>(i);
  }
  return std::nullopt;
}

bool solver_takes_sources(Solver s) {
  return s == Solver::kPipelined || s == Solver::kBlocker;
}

void* map_table_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_table_pages(void* p, std::size_t bytes) noexcept {
  munmap(p, bytes);
}

DistanceOracle::DistanceOracle(NodeId n, Table<Weight> dist,
                               Table<NodeId> next, OracleMeta meta,
                               std::size_t shards)
    : n_(n), meta_(std::move(meta)), dist_(std::move(dist)),
      next_(std::move(next)) {
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  util::check(n > 0, "DistanceOracle: empty oracle");
  util::check(dist_.size() == cells, "DistanceOracle: dist table is not n*n");
  util::check(next_.empty() || next_.size() == cells,
              "DistanceOracle: next table is not n*n");
  const std::size_t s = std::clamp<std::size_t>(shards, 1, n);
  rows_per_shard_ = static_cast<NodeId>((n + s - 1) / s);
}

ShardInfo DistanceOracle::shard_info(std::size_t shard) const noexcept {
  const std::size_t begin = shard * rows_per_shard_;
  const std::size_t end = std::min<std::size_t>(n_, begin + rows_per_shard_);
  return {static_cast<NodeId>(begin), static_cast<NodeId>(end),
          (end - begin) * row_bytes()};
}

std::vector<ShardInfo> DistanceOracle::shard_layout() const {
  std::vector<ShardInfo> out(shard_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = shard_info(i);
  return out;
}

std::optional<std::vector<NodeId>> DistanceOracle::path(NodeId u,
                                                        NodeId v) const {
  if (u >= n_ || v >= n_ || next_.empty()) return std::nullopt;
  if (u == v) return std::vector<NodeId>{u};
  if (dist(u, v) == kInfDist) return std::nullopt;
  std::vector<NodeId> out;
  out.reserve(8);
  out.push_back(u);
  NodeId cur = u;
  while (cur != v) {
    // Each hop strictly shrinks the remaining hop count, so a walk longer
    // than n means the table is corrupt, not slow.
    if (out.size() > n_) return std::nullopt;
    const NodeId hop = next_hop(cur, v);
    if (hop == kNoNode) return std::nullopt;
    out.push_back(hop);
    cur = hop;
  }
  return out;
}

namespace {

/// Every row of `m` holds n entries.
template <typename T>
void check_square(const std::vector<std::vector<T>>& m, std::size_t n,
                  const char* what) {
  util::check(m.size() == n, what);
  for (const auto& row : m) util::check(row.size() == n, what);
}

Table<Weight> flatten(const std::vector<std::vector<Weight>>& dist) {
  const std::size_t n = dist.size();
  Table<Weight> flat;
  flat.reserve(n * n);
  for (const auto& row : dist) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

/// next_hop(s, v) for every v of one source: all nodes on the shortest path
/// s -> v share the same first hop, so one backward walk per unresolved node
/// resolves its whole parent chain at once.  `stack` is caller-provided
/// scratch so a full-matrix build reuses one allocation across sources.
void fill_next_hops_from_parents(NodeId s, NodeId n,
                                 std::span<const Weight> dist_row,
                                 std::span<const NodeId> parent_row,
                                 NodeId* next_row, std::vector<NodeId>& stack) {
  for (NodeId v = 0; v < n; ++v) {
    if (v == s || dist_row[v] == kInfDist || next_row[v] != kNoNode) continue;
    stack.clear();
    NodeId cur = v;
    // Walk toward s until we hit a node whose first hop is known or whose
    // parent is s itself.
    while (true) {
      util::check(stack.size() <= n, "make_oracle: parent chain has a cycle");
      const NodeId p = parent_row[cur];
      util::check(p != kNoNode && p < n,
                  "make_oracle: parent chain does not reach its source");
      if (p == s || next_row[p] != kNoNode) break;
      stack.push_back(cur);
      cur = p;
    }
    const NodeId hop = parent_row[cur] == s ? cur : next_row[parent_row[cur]];
    next_row[cur] = hop;
    for (const NodeId w : stack) next_row[w] = hop;
  }
}

/// The next-hop table of a run that reports distances and hop counts but
/// no parents (scaled): see build_oracle for the tie-breaks.
Table<NodeId> next_hops_from_distances(
    const Graph& g, const std::vector<std::vector<Weight>>& dist,
    const std::vector<std::vector<std::uint32_t>>& hops) {
  const NodeId n = g.node_count();
  check_square(dist, n, "build_oracle: matrix does not match graph");
  check_square(hops, n, "build_oracle: hops matrix shape mismatch");
  Table<NodeId> next(static_cast<std::size_t>(n) * n, kNoNode);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || dist[u][v] == kInfDist) continue;
      NodeId best = kNoNode;
      std::uint32_t best_h = 0;
      for (const auto& e : g.out_edges(u)) {
        const Weight dw = dist[e.to][v];
        if (dw == kInfDist || e.weight + dw != dist[u][v]) continue;
        const std::uint32_t hw = hops[e.to][v];
        if (best == kNoNode || hw < best_h || (hw == best_h && e.to < best)) {
          best = e.to;
          best_h = hw;
        }
      }
      util::check(best != kNoNode, "build_oracle: no edge realizes dist(u,v)");
      next[static_cast<std::size_t>(u) * n + v] = best;
    }
  }
  return next;
}

/// The reference rows: seq::dijkstra_row for every source, written into
/// row s of both n x n tables, on the pool `env` names.  One task per pool
/// thread, each with its own workspace, claims one source at a time from a
/// shared cursor.  Rows are disjoint and each is a pure function of g and
/// its source, so the tables are the same at every thread count.
void fill_reference_rows(const Graph& g, const congest::RunEnv& env,
                         Table<Weight>& dist, Table<NodeId>& next) {
  const NodeId n = g.node_count();
  std::unique_ptr<util::ThreadPool> own;
  util::ThreadPool& pool = util::run_pool(env.threads, env.pin, own);
  std::atomic<NodeId> cursor{0};
  pool.parallel_for(pool.thread_count(), [&](std::size_t) {
    seq::RowWorkspace ws;
    for (NodeId s; (s = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const std::size_t off = static_cast<std::size_t>(s) * n;
      seq::dijkstra_row(g, s, {dist.data() + off, n}, {next.data() + off, n},
                        ws);
    }
  });
}

/// Fault-plan safety net for engine-backed builds: when the build's fault
/// plan is active, an unreachable entry in the result may mean the
/// faults (a crashed cut vertex, unrecovered losses) severed pairs that the
/// real graph connects -- silently serving kInfDist for them would be a
/// wrong answer wearing an honest face.  Compare the table's infinite
/// entries against plain BFS reachability on g and fail loudly on mismatch.
void check_fault_partition(const Graph& g, const DistanceOracle& o,
                           const congest::FaultPlan* plan) {
  if (plan == nullptr || !plan->enabled()) return;
  const NodeId n = g.node_count();
  std::vector<std::uint8_t> seen(n);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, s);
    seen[s] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const auto& e : g.out_edges(queue[head])) {
        if (!seen[e.to]) {
          seen[e.to] = 1;
          queue.push_back(e.to);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (seen[v] && o.dist(s, v) == kInfDist) {
        throw std::runtime_error(
            "build_oracle: fault plan \"" + plan->spec() +
            "\" partitioned the run: " + std::to_string(v) +
            " is reachable from " + std::to_string(s) +
            " in the graph but the solver found no distance (crashed node "
            "on every path, or losses the protocol could not recover)");
      }
    }
  }
}

}  // namespace

DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta, std::size_t shards) {
  util::check(!dist.empty(), "make_oracle: empty distance matrix");
  const NodeId n = static_cast<NodeId>(dist.size());
  check_square(dist, n, "make_oracle: distance matrix not square");
  Table<NodeId> next;
  if (!parent.empty()) {
    check_square(parent, n, "make_oracle: parent matrix shape mismatch");
    next.assign(static_cast<std::size_t>(n) * n, kNoNode);
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < n; ++s) {
      fill_next_hops_from_parents(
          s, n, dist[s], parent[s],
          next.data() + static_cast<std::size_t>(s) * n, stack);
    }
  }
  return DistanceOracle(n, flatten(dist), std::move(next), std::move(meta),
                        shards);
}

SolverRun run_solver(const Graph& g, const OracleBuildOptions& opts,
                     std::vector<NodeId> sources) {
  const NodeId n = g.node_count();
  const bool subset = !sources.empty();
  if (subset && !solver_takes_sources(opts.solver)) {
    throw std::invalid_argument(std::string("run_solver: ") +
                                solver_name(opts.solver) +
                                " runs from every node; only pipelined and "
                                "blocker take sources");
  }
  const congest::RunEnv& env = opts.env;
  SolverRun r;
  switch (opts.solver) {
    case Solver::kPipelined: {
      const Weight delta = graph::max_finite_distance(g);
      auto res = subset ? core::pipelined_kssp_full(g, std::move(sources),
                                                    delta, env)
                        : core::pipelined_apsp(g, delta, env);
      r = {std::move(res.sources), std::move(res.dist),
           std::move(res.parent), {},
           {subset ? "pipelined k-SSP (Algorithm 1, Thm I.1 iii)"
                   : "pipelined APSP (Algorithm 1, Thm I.1 ii)",
            true, res.stats, {}, res.theoretical_bound}};
      break;
    }
    case Solver::kBlocker: {
      core::BlockerApspParams p;
      p.sources = std::move(sources);
      p.h = opts.h;
      p.env = env;
      auto res = core::blocker_apsp(g, p);
      r = {std::move(res.sources), std::move(res.dist),
           std::move(res.parent), {},
           {std::string(subset ? "blocker k-SSP" : "blocker APSP") +
                " (Algorithm 3, h=" + std::to_string(res.h) + ")",
            true, res.stats, {}, res.theoretical_bound}};
      break;
    }
    case Solver::kScaled: {
      core::ScaledApspParams p;
      p.h = n > 1 ? n - 1 : 1;
      p.delta = graph::max_finite_distance(g);
      p.env = env;
      auto res = core::scaled_hhop_apsp(g, p);
      r = {{}, std::move(res.dist), {}, std::move(res.hops),
           {"scaled per-source APSP (Sec. II-C)", true, res.stats, {},
            res.theoretical_bound}};
      break;
    }
    case Solver::kApprox: {
      core::ApproxApspParams p;
      p.eps = opts.eps;
      p.env = env;
      auto res = core::approx_apsp(g, p);
      std::ostringstream label;
      label << "approx APSP (Thm I.5, eps=" << opts.eps << ", " << res.scales
            << " scales); distance-only";
      r = {{}, std::move(res.dist), {}, {},
           {label.str(), false, res.stats, {}, res.implementation_bound}};
      break;
    }
    case Solver::kReference:
      throw std::invalid_argument(
          "run_solver: reference runs no CONGEST solver; build_oracle fills "
          "its rows");
    case Solver::kBellmanFord: {
      auto res = baseline::bf_apsp(g, env);
      // n phases of at most n + 2 rounds each.
      r = {{}, std::move(res.dist), std::move(res.parent), {},
           {"bf APSP (Bellman-Ford baseline, n sequential SSSPs)", true,
            res.stats, {}, static_cast<std::uint64_t>(n) * (n + 2ULL)}};
      break;
    }
  }
  if (r.sources.empty()) {
    r.sources.resize(n);
    std::iota(r.sources.begin(), r.sources.end(), NodeId{0});
  }
  return r;
}

DistanceOracle build_oracle(const Graph& g, const OracleBuildOptions& opts,
                            std::size_t shards) {
  const NodeId n = g.node_count();
  util::check(n > 0, "build_oracle: empty graph");
  if (opts.solver == Solver::kReference) {
    // No engine: no fault plan can have bent the rows, and there is no
    // round structure for the profiler to observe.
    const std::size_t cells = static_cast<std::size_t>(n) * n;
    Table<Weight> dist(cells);
    Table<NodeId> next(cells);
    fill_reference_rows(g, opts.env, dist, next);
    return DistanceOracle(n, std::move(dist), std::move(next),
                          {kReferenceLabel, true, {}, {}}, shards);
  }
  // A profiled build records into a local recorder unless the caller's
  // recorder owns the observation (its own export carries the analysis).
  OracleBuildOptions run_opts = opts;
  std::unique_ptr<obs::TraceRecorder> profile;
  if (opts.critpath && opts.env.recorder == nullptr) {
    obs::TraceRecorder::Options ropt;
    ropt.work_item_capacity = std::size_t{1} << 20;
    profile = std::make_unique<obs::TraceRecorder>(ropt);
    run_opts.env.recorder = profile.get();
  }
  SolverRun run = run_solver(g, run_opts);
  if (profile) {
    run.meta.critpath = obs::summarize(obs::analyze_critical_path(*profile));
  }
  DistanceOracle o =
      run.hops.empty()
          ? make_oracle(run.dist, run.parent, std::move(run.meta), shards)
          : DistanceOracle(n, flatten(run.dist),
                           next_hops_from_distances(g, run.dist, run.hops),
                           std::move(run.meta), shards);
  check_fault_partition(g, o, opts.env.faults);
  return o;
}

}  // namespace dapsp::service
