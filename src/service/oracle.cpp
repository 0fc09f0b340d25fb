#include "service/oracle.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/pipelined_ssp.hpp"
#include "core/scaled_apsp.hpp"
#include "graph/properties.hpp"
#include "obs/trace.hpp"
#include "seq/dijkstra.hpp"
#include "util/int_math.hpp"

namespace dapsp::service {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

const char* solver_name(Solver s) {
  switch (s) {
    case Solver::kPipelined: return "pipelined";
    case Solver::kBlocker: return "blocker";
    case Solver::kScaled: return "scaled";
    case Solver::kApprox: return "approx";
    case Solver::kReference: return "reference";
  }
  return "?";
}

Solver parse_solver(const std::string& word) {
  if (word == "pipelined") return Solver::kPipelined;
  if (word == "blocker") return Solver::kBlocker;
  if (word == "scaled") return Solver::kScaled;
  if (word == "approx") return Solver::kApprox;
  if (word == "reference") return Solver::kReference;
  throw std::invalid_argument(
      "unknown solver '" + word +
      "' (pipelined|blocker|scaled|approx|reference)");
}

std::size_t DistanceOracle::memory_bytes() const noexcept {
  return dist_.capacity() * sizeof(Weight) + next_.capacity() * sizeof(NodeId);
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

void check_square(const std::vector<std::vector<Weight>>& dist) {
  const std::size_t n = dist.size();
  util::check(n > 0, "make_oracle: empty distance matrix");
  for (const auto& row : dist) {
    util::check(row.size() == n, "make_oracle: distance matrix not square");
  }
}

std::vector<Weight> flatten(const std::vector<std::vector<Weight>>& dist) {
  const std::size_t n = dist.size();
  std::vector<Weight> flat;
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

/// Fault-plan safety net for engine-backed builds: when the process-global
/// fault plan is active, an unreachable entry in the result may mean the
/// faults (a crashed cut vertex, unrecovered losses) severed pairs that the
/// real graph connects -- silently serving kInfDist for them would be a
/// wrong answer wearing an honest face.  Compare the oracle's infinite
/// entries against plain BFS reachability on g and fail loudly on mismatch.
void check_fault_partition(const Graph& g, const DistanceOracle& o) {
  const congest::FaultPlan* plan = congest::Engine::global_fault_plan();
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

DistanceOracle build_oracle_impl(const Graph& g,
                                 const OracleBuildOptions& opts);

/// Installs a work-item-recording trace recorder as the process-global
/// recorder for the duration of one oracle build, so the engines the solver
/// constructs internally feed the critical-path analyzer.  Only engaged
/// when no global recorder exists -- an already-installed one (the CLI's
/// --trace flags) owns the observation and its own export carries the
/// analysis.  Engine ctors latch the global under the same single-threaded
/// setup contract as set_global_recorder itself.
class ScopedBuildRecorder {
 public:
  explicit ScopedBuildRecorder(bool enabled) {
    if (!enabled || congest::Engine::global_recorder() != nullptr) return;
    obs::TraceRecorder::Options ropt;
    ropt.work_item_capacity = std::size_t{1} << 20;
    rec_ = std::make_unique<obs::TraceRecorder>(ropt);
    congest::Engine::set_global_recorder(rec_.get());
  }
  ~ScopedBuildRecorder() {
    if (rec_) congest::Engine::set_global_recorder(nullptr);
  }
  ScopedBuildRecorder(const ScopedBuildRecorder&) = delete;
  ScopedBuildRecorder& operator=(const ScopedBuildRecorder&) = delete;

  const obs::TraceRecorder* recorder() const noexcept { return rec_.get(); }

 private:
  std::unique_ptr<obs::TraceRecorder> rec_;
};

}  // namespace

void fill_reference_rows(const Graph& g,
                         const std::function<RowSlot(NodeId)>& slot) {
  const NodeId n = g.node_count();
  seq::RowWorkspace ws;
  for (NodeId s = 0; s < n; ++s) {
    const RowSlot row = slot(s);
    seq::dijkstra_row(g, s, {row.dist, n}, {row.next, n}, ws);
  }
}

DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta) {
  check_square(dist);
  const NodeId n = static_cast<NodeId>(dist.size());
  DistanceOracle o;
  o.n_ = n;
  o.exact_ = meta.exact;
  o.meta_ = std::move(meta);
  o.dist_ = flatten(dist);
  if (!parent.empty()) {
    util::check(parent.size() == dist.size() && parent[0].size() == dist.size(),
                "make_oracle: parent matrix shape mismatch");
    o.next_.assign(static_cast<std::size_t>(n) * n, kNoNode);
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < n; ++s) {
      fill_next_hops_from_parents(s, n, dist[s], parent[s],
                                  o.next_.data() + o.flat(s, 0), stack);
    }
  }
  return o;
}

DistanceOracle make_oracle_from_distances(
    const Graph& g, const std::vector<std::vector<Weight>>& dist,
    const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta) {
  check_square(dist);
  util::check(g.node_count() == dist.size(),
              "make_oracle_from_distances: matrix does not match graph");
  util::check(hops.size() == dist.size(),
              "make_oracle_from_distances: hops matrix shape mismatch");
  const NodeId n = static_cast<NodeId>(dist.size());
  DistanceOracle o;
  o.n_ = n;
  o.exact_ = meta.exact;
  o.meta_ = std::move(meta);
  o.dist_ = flatten(dist);
  o.next_.assign(static_cast<std::size_t>(n) * n, kNoNode);
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
      util::check(best != kNoNode,
                  "make_oracle_from_distances: no edge realizes dist(u,v)");
      o.next_[o.flat(u, v)] = best;
    }
  }
  return o;
}

DistanceOracle make_oracle_from_rows(NodeId n, std::vector<Weight> dist,
                                     std::vector<NodeId> next,
                                     OracleMeta meta) {
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  util::check(n > 0, "make_oracle_from_rows: empty oracle");
  util::check(dist.size() == cells,
              "make_oracle_from_rows: dist table is not n*n");
  util::check(next.empty() || next.size() == cells,
              "make_oracle_from_rows: next table is not n*n");
  DistanceOracle o;
  o.n_ = n;
  o.exact_ = meta.exact;
  o.meta_ = std::move(meta);
  o.dist_ = std::move(dist);
  o.next_ = std::move(next);
  return o;
}

DistanceOracle build_oracle(const Graph& g, const OracleBuildOptions& opts) {
  util::check(g.node_count() > 0, "build_oracle: empty graph");
  // kReference never touches the engine: no fault plan can have bent it,
  // and there is no round structure for the profiler to observe.
  const ScopedBuildRecorder profile(opts.critpath &&
                                    opts.solver != Solver::kReference);
  DistanceOracle o = build_oracle_impl(g, opts);
  if (opts.solver != Solver::kReference) check_fault_partition(g, o);
  if (profile.recorder() != nullptr) {
    o.meta_.critpath =
        obs::summarize(obs::analyze_critical_path(*profile.recorder()));
  }
  return o;
}

namespace {

DistanceOracle build_oracle_impl(const Graph& g,
                                 const OracleBuildOptions& opts) {
  const NodeId n = g.node_count();
  switch (opts.solver) {
    case Solver::kPipelined: {
      const Weight delta = graph::max_finite_distance(g);
      auto res = core::pipelined_apsp(g, delta);
      return make_oracle(res.dist, res.parent,
                         {"pipelined APSP (Algorithm 1, Thm I.1 ii)", true,
                          res.stats, {}});
    }
    case Solver::kBlocker: {
      core::BlockerApspParams p;
      p.h = opts.h;
      auto res = core::blocker_apsp(g, p);
      return make_oracle(res.dist, res.parent,
                         {"blocker APSP (Algorithm 3, h=" +
                              std::to_string(res.h) + ")",
                          true, res.stats, {}});
    }
    case Solver::kScaled: {
      core::ScaledApspParams p;
      p.h = n > 1 ? n - 1 : 1;
      p.delta = graph::max_finite_distance(g);
      auto res = core::scaled_hhop_apsp(g, p);
      return make_oracle_from_distances(
          g, res.dist, res.hops,
          {"scaled per-source APSP (Sec. II-C)", true, res.stats, {}});
    }
    case Solver::kApprox: {
      core::ApproxApspParams p;
      p.eps = opts.eps;
      auto res = core::approx_apsp(g, p);
      std::ostringstream label;
      label << "approx APSP (Thm I.5, eps=" << opts.eps << ", " << res.scales
            << " scales); distance-only";
      return make_oracle(res.dist, {}, {label.str(), false, res.stats, {}});
    }
    case Solver::kReference: {
      const std::size_t cells = static_cast<std::size_t>(n) * n;
      std::vector<Weight> dist(cells);
      std::vector<NodeId> next(cells);
      fill_reference_rows(g, [&](NodeId s) {
        const std::size_t off = static_cast<std::size_t>(s) * n;
        return RowSlot{dist.data() + off, next.data() + off};
      });
      return make_oracle_from_rows(n, std::move(dist), std::move(next),
                                   {kReferenceLabel, true, {}, {}});
    }
  }
  throw std::logic_error("build_oracle: unhandled solver");
}

}  // namespace

}  // namespace dapsp::service
