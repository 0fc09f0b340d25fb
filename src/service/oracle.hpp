// Immutable in-memory distance oracle built from a finished APSP run.
//
// The paper's algorithms end with every node holding per-source distances
// and last-edge (parent) pointers; until now the library printed those and
// threw them away.  `DistanceOracle` is the consumer-facing half: it
// flattens a full n-source run into a row-major distance matrix plus a
// next-hop table and answers dist / next-hop / full-path queries in O(1) /
// O(1) / O(path length) with no further graph traversal.  Oracles are
// immutable after construction, so any number of threads may query one
// concurrently without synchronization (the query service layers caching
// and metrics on top, see service/query_service.hpp).
#pragma once

#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"
#include "obs/critpath.hpp"
#include "service/stats.hpp"

namespace dapsp::service {

using graph::NodeId;
using graph::Weight;

/// The solvers of the library, one vocabulary for every tool: run_solver
/// holds the one switch over them.
enum class Solver {
  kPipelined,  ///< Algorithm 1 APSP (Thm I.1 ii), k-SSP (Thm I.1 iii)
  kBlocker,    ///< Algorithm 3 APSP / k-SSP (Thm I.2/I.3)
  kScaled,     ///< multiplexed per-source Algorithm 2 (Sec. II-C)
  kApprox,     ///< (1+eps)-approx APSP (Thm I.5); distance-only oracle
  kReference,  ///< Dijkstra from every source -- not a CONGEST run; the
               ///< fast local builder for serving large graphs and for
               ///< tests (see build_oracle)
  kBellmanFord,  ///< n sequential Bellman-Ford SSSPs, the O(n^2)-round
                 ///< baseline of Table I
};

/// The solver's word: "pipelined", "blocker", "scaled", "approx",
/// "reference" or "bf".
const char* solver_name(Solver s);

/// The solver named `word` (solver_name's inverse); nullopt for any other
/// word.
std::optional<Solver> parse_solver(std::string_view word);

/// True for the solvers that run from a subset of sources (k-SSP):
/// kPipelined and kBlocker.  The others run from every node.
bool solver_takes_sources(Solver s);

struct OracleBuildOptions {
  Solver solver = Solver::kPipelined;
  std::uint32_t h = 0;  ///< blocker hop parameter (0 = theorem balance)
  double eps = 0.5;     ///< approx quality
  /// Profile the build: record per-(node, round) work items and stamp the
  /// critical-path summary into the oracle's meta (surfaced through
  /// ServiceStats as `critpath`).  Ignored for kReference (no engine run)
  /// and when `env.recorder` is set -- that recorder owns the observation
  /// and its own export carries the analysis.
  bool critpath = false;
  /// Threads, schedule, recorder and fault plan of every engine the solver
  /// runs (congest::RunEnv).  kReference runs no engine: it reads only
  /// `threads` and `pin`, which pick the pool of its row loop.
  congest::RunEnv env{};
};

/// Provenance attached by the builders.
struct OracleMeta {
  std::string label;         ///< human-readable solver description
  bool exact = true;         ///< false for (1+eps)-approximate distances
  congest::RunStats stats;   ///< the producing run (zeroed for kReference)
  /// Critical-path summary of the producing build; empty() unless the
  /// build ran with OracleBuildOptions::critpath.
  obs::CritPathSummary critpath;
  /// The solver's round bound for this run (0 for kReference).
  std::uint64_t bound = 0;
};

/// Pages for one closure table, mapped from the OS (std::bad_alloc when it
/// has none), and their release.
void* map_table_pages(std::size_t bytes);
void unmap_table_pages(void* p, std::size_t bytes) noexcept;

/// Allocator of the closure tables: whole pages from the OS, returned to it
/// when the table is destroyed.  A serving tier retires one n x n closure
/// per rebuild.  From the heap, a retired table would stay resident in its
/// arena, and glibc raises its mmap threshold to the size of each freed
/// mapped chunk, after which every smaller buffer of the process is served
/// from the heap too and stays resident once freed.
template <typename T>
struct TableAllocator {
  using value_type = T;
  TableAllocator() = default;
  template <typename U>
  TableAllocator(const TableAllocator<U>&) noexcept {}
  T* allocate(std::size_t count) {
    return static_cast<T*>(map_table_pages(count * sizeof(T)));
  }
  void deallocate(T* p, std::size_t count) noexcept {
    unmap_table_pages(p, count * sizeof(T));
  }
  /// Table<T>(cells) default-initializes: the mapped pages are zero
  /// already, and the builder that sizes a table this way overwrites every
  /// cell, so a value-initializing pass would only write zeros over zeros.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  friend bool operator==(TableAllocator, TableAllocator) noexcept {
    return true;
  }
};

/// One row-major n x n closure table.
template <typename T>
using Table = std::vector<T, TableAllocator<T>>;

/// The APSP closure: one row-major n x n table of distances and one of first
/// hops, read by every query type and every analytics family.  Shards are
/// reported row ranges of that one table -- shard i covers source rows
/// [i*r, min(n, (i+1)*r)) with r = ceil(n / min(S, n)) -- used for occupancy
/// reporting only: dist and next_hop read u*n + v for every S, so answers
/// and bytes are identical across shard counts.
///
/// Immutable once published, apart from the epoch the query service stamps
/// while it still holds the only reference (see swap_snapshot).
class DistanceOracle {
 public:
  DistanceOracle() = default;
  /// Adopts finished row-major tables without recomputation (the builders'
  /// path).  `dist` holds n*n entries; `next` holds n*n entries or is empty
  /// for a distance-only oracle.  `shards` is clamped to [1, n].  Throws
  /// std::logic_error on size mismatch.  No parent-chain revalidation
  /// happens here: the rows come from a builder that already validated
  /// them.
  DistanceOracle(NodeId n, Table<Weight> dist, Table<NodeId> next,
                 OracleMeta meta, std::size_t shards = 1);

  NodeId node_count() const noexcept { return n_; }
  /// False when distances are (1+eps)-approximate.
  bool exact() const noexcept { return meta_.exact; }
  /// True when a next-hop table exists (every exact solver).  Approximate
  /// distances cannot certify which edges lie on shortest paths, so the
  /// approx oracle is distance-only.
  bool has_paths() const noexcept { return !next_.empty(); }
  const std::string& solver_label() const noexcept { return meta_.label; }
  /// Stats of the CONGEST run that produced the tables (zeroed for
  /// kReference).
  const congest::RunStats& build_stats() const noexcept { return meta_.stats; }
  /// Critical-path summary of the producing build; nullptr when the build
  /// was not profiled (OracleBuildOptions::critpath off, reference solver,
  /// or the caller's own recorder owned the observation).
  const obs::CritPathSummary* build_critpath() const noexcept {
    return meta_.critpath.empty() ? nullptr : &meta_.critpath;
  }
  const OracleMeta& meta() const noexcept { return meta_; }
  /// Bytes held by the distance + next-hop tables: 12 a cell with paths,
  /// 8 without.
  std::size_t memory_bytes() const noexcept { return row_bytes() * n_; }

  /// Distance u -> v (kInfDist when unreachable).  Unchecked hot path: ids
  /// must be < node_count(); the query service validates untrusted input.
  Weight dist(NodeId u, NodeId v) const noexcept {
    return dist_[flat(u, v)];
  }

  /// First hop on a shortest path u -> v; kNoNode when u == v, v is
  /// unreachable, or the oracle is distance-only.  Unchecked ids.
  NodeId next_hop(NodeId u, NodeId v) const noexcept {
    return next_.empty() ? graph::kNoNode : next_[flat(u, v)];
  }

  /// Full node sequence u ... v following next hops; nullopt when v is
  /// unreachable, the oracle is distance-only, or ids are out of range.
  /// For u == v returns {u}.
  std::optional<std::vector<NodeId>> path(NodeId u, NodeId v) const;

  /// Row u of the distance table (all targets of one source).
  std::span<const Weight> dist_row(NodeId u) const noexcept {
    return {dist_.data() + flat(u, 0), static_cast<std::size_t>(n_)};
  }
  /// Row u of the next-hop table; empty span for distance-only oracles.
  std::span<const NodeId> next_row(NodeId u) const noexcept {
    if (next_.empty()) return {};
    return {next_.data() + flat(u, 0), static_cast<std::size_t>(n_)};
  }

  /// Shard layout for occupancy reporting; the ranges partition [0, n) in
  /// order, and the last may be short.
  std::size_t shard_count() const noexcept {
    return (n_ + rows_per_shard_ - 1) / rows_per_shard_;
  }
  ShardInfo shard_info(std::size_t shard) const noexcept;
  std::vector<ShardInfo> shard_layout() const;

  /// Publication epoch; 0 until the query service assigns one at swap time.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Pre-publication only: the service stamps the epoch while it still holds
  /// the sole reference, then releases the oracle to readers.
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }

 private:
  std::size_t flat(NodeId u, NodeId v) const noexcept {
    return static_cast<std::size_t>(u) * n_ + v;
  }
  std::size_t row_bytes() const noexcept {
    return static_cast<std::size_t>(n_) *
           (sizeof(Weight) + (next_.empty() ? 0 : sizeof(NodeId)));
  }

  NodeId n_ = 0;
  NodeId rows_per_shard_ = 1;
  std::uint64_t epoch_ = 0;
  OracleMeta meta_;
  Table<Weight> dist_;  // row-major [u*n + v]
  Table<NodeId> next_;  // row-major; empty for distance-only oracles
};

/// Flattens a full APSP result (dist[s][v] with sources 0..n-1 in order)
/// into an oracle.  `parent` (parent[s][v] = predecessor of v on the s-path)
/// supplies the next-hop table; pass an empty vector for a distance-only
/// oracle, reported as `shards` row ranges.  Throws std::logic_error on
/// non-square input (every row of both matrices is checked) or parent
/// chains that do not reach their source (corrupt run).
DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta, std::size_t shards = 1);

/// Solver label of every kReference closure.
inline constexpr char kReferenceLabel[] = "reference (Dijkstra sweep)";

/// One solver run's rows: row i holds the distances from sources[i].
struct SolverRun {
  std::vector<NodeId> sources;
  std::vector<std::vector<Weight>> dist;  ///< dist[i][v]
  /// parent[i][v]: v's predecessor on a shortest path from sources[i];
  /// empty when the solver reports none (kScaled, kApprox).
  std::vector<std::vector<NodeId>> parent;
  /// hops[i][v]: the edge count of that path; kScaled only, whose next hops
  /// are derived from distances and hops.
  std::vector<std::vector<std::uint32_t>> hops;
  OracleMeta meta;  ///< label (starting with the solver's word), stats, bound
};

/// The one solver switch: runs `opts.solver` on g with opts.h, opts.eps and
/// opts.env, from `sources` (empty = every node, in id order), and returns
/// its rows as computed -- under a fault plan that is whatever the faulted
/// run produced; build_oracle adds the checks.  A non-empty `sources` with
/// a solver that does not take one (solver_takes_sources), and kReference,
/// which runs no CONGEST solver (build_oracle fills its rows directly),
/// throw std::invalid_argument.
SolverRun run_solver(const graph::Graph& g, const OracleBuildOptions& opts,
                     std::vector<NodeId> sources = {});

/// The one builder: runs the chosen solver on g and writes its rows once
/// into the oracle's table, reported as `shards` row ranges (clamped to
/// [1, n]).  Every solver but kReference runs through run_solver.
/// kReference runs seq::dijkstra_row for every source on the pool
/// of `opts.env` (util::run_pool: 0 threads = the process-global pool): one
/// task per pool thread, each with its own workspace, takes the next source
/// from a shared cursor and writes that row in place.  Its rows are
/// bit-identical to make_oracle over seq::dijkstra distances and parents at
/// every thread count (docs/PERF.md, "Reference closure build").
/// kScaled reports distances and hop counts but no parents, so its next
/// hops are derived over g's arcs: the first hop toward v is the
/// out-neighbor w with w(u,w) + dist(w,v) = dist(u,v), ties broken by fewer
/// remaining hops (progress across zero-weight plateaus) then smaller id.
///
/// Fault safety: when `opts.env.faults` is an active plan and the solver
/// ran on the engine, the builder cross-checks the result against BFS
/// reachability on g and throws std::runtime_error if any truly reachable
/// pair came out unreachable -- e.g. a crash-stopped cut vertex partitioned
/// the run.  A faulted build either serves correct reachability or fails
/// loudly; it never silently serves kInfDist for a connected pair.
DistanceOracle build_oracle(const graph::Graph& g,
                            const OracleBuildOptions& opts = {},
                            std::size_t shards = 1);

}  // namespace dapsp::service
