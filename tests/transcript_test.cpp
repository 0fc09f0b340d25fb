// Protocol transcripts: every session the text, JSONL and binary protocols
// can hold over one fixed small graph, pinned byte for byte.  Each row runs
// one session on a fresh service and compares what the client sees -- the
// response stream plus the session's returned error count -- with the
// captured transcript.  Binary responses are decoded frame by frame with
// read_response and rendered with every field and each frame's payload
// length.  Stats answers keep every count (queries, errors, batches, cache
// hits and misses, epoch) and mask only the latency fields.
//
// The rows cover every query family (unreachable pairs, out-of-range ids,
// a distance-only approx closure), blank lines, comments, quit and exit,
// batches (in-position parse errors, max_batch, truncation), the rebuild
// directive with no hook, a succeeding hook and a failing one, and every
// binary opcode and error class.  On a mismatch the observed transcript
// prints in the table's own format.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "serve/wire.hpp"
#include "service/query_service.hpp"

namespace dapsp::serve {
namespace {

using graph::Graph;
using graph::NodeId;
using service::Query;
using service::QueryResult;
using service::QueryService;
using service::QueryType;

using Fmt = Format;
enum class Hook { kNone, kOk, kFail };
enum class Closure { kExact, kApprox };

/// 0 -> {1, 2} -> 3 -> 4 -> 0, a direct 0 -> 3, a zero-weight 3 -> 4, and
/// node 5, which reaches 0 but which no node reaches.
std::shared_ptr<const Graph> transcript_graph() {
  graph::GraphBuilder b(6, /*directed=*/true);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 3, 1);
  b.add_edge(0, 2, 2);
  b.add_edge(2, 3, 2);
  b.add_edge(0, 3, 5);
  b.add_edge(3, 4, 0);
  b.add_edge(4, 0, 3);
  b.add_edge(5, 0, 2);
  return std::make_shared<const Graph>(std::move(b).build());
}

struct Row {
  const char* name;
  Fmt fmt;
  Closure closure;
  Hook hook;
  std::size_t max_batch;
  std::string input;
  std::string want;  ///< responses, then "-- errors N"
};

/// Runs one session: a fresh one-thread service (so cache counts do not
/// depend on scheduling) with analytics attached.
int run_session(const Row& row, std::ostream& out) {
  const auto g = transcript_graph();
  const service::Solver solver = row.closure == Closure::kExact
                                     ? service::Solver::kReference
                                     : service::Solver::kApprox;
  service::QueryServiceConfig cfg;
  cfg.threads = 1;
  QueryService svc(service::build_oracle(*g, {solver, 0, 0.5}), cfg);
  svc.enable_analytics(g);
  SessionOptions opts;
  opts.max_batch = row.max_batch;
  if (row.hook == Hook::kOk) {
    opts.on_rebuild = [] { return RebuildOutcome{true, 7, 1234, ""}; };
  } else if (row.hook == Hook::kFail) {
    opts.on_rebuild = [] { return RebuildOutcome{false, 0, 0, "boom"}; };
  }
  std::istringstream in(row.input);
  return serve_session(svc, in, out, row.fmt, opts);
}

std::string mask_text_stats(const std::string& s) {
  static const std::regex re("(mean_ns|p99_ns|max_ns)=[0-9]+");
  return std::regex_replace(s, re, "$1=*");
}

std::string mask_json_stats(const std::string& s) {
  static const std::regex re(
      "\"(sum|min|max|mean|p50|p90|p99|error_ns)\":[-+0-9.eE]+");
  return std::regex_replace(s, re, "\"$1\":*");
}

// (Streams, not string concatenation: gcc 12 warns -Wrestrict on
// `"," + std::to_string(x)`.)
std::string join(const std::vector<NodeId>& xs) {
  std::ostringstream s;
  for (std::size_t i = 0; i < xs.size(); ++i) s << (i ? "," : "") << xs[i];
  return s.str();
}

std::string routes_of(const QueryResult& r) {
  std::ostringstream s;
  for (const query::Route& rt : r.routes) {
    s << " " << rt.weight << ":" << join(rt.nodes);
  }
  return s.str();
}

/// One line per decoded frame (batch results indented below their frame).
std::string render_frames(const std::string& bytes) {
  std::ostringstream os;
  os << std::setprecision(17);
  std::istringstream in(bytes);
  std::size_t pos = 0;
  while (const auto f = wire::read_response(in)) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = len << 8 |
            static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(i)]);
    }
    pos += 4 + len;
    const QueryResult& r = f->result;
    const std::string head = (std::ostringstream() << "(" << len << ") ").str();
    const std::string status = r.ok ? "ok" : "err " + r.error;
    switch (f->kind) {
      case wire::Response::Kind::kBatch:
        os << "BATCH" << head << f->results.size() << "\n";
        for (const QueryResult& q : f->results) {
          os << "  " << service::query_type_name(q.type) << " ";
          if (q.ok) {
            os << "ok dist=" << q.dist << " next=" << q.next_hop
               << " path=" << join(q.path) << "\n";
          } else {
            os << "err " << q.error << "\n";
          }
        }
        break;
      case wire::Response::Kind::kStats:
        os << "STATS " << mask_json_stats(f->stats_json) << "\n";
        break;
      case wire::Response::Kind::kRebuild:
        os << "REBUILD" << head << "epoch=" << f->epoch
           << " build_ns=" << f->build_ns << "\n";
        break;
      case wire::Response::Kind::kKPath:
        os << "KPATH" << head << status;
        if (r.ok) os << " dist=" << r.dist << routes_of(r);
        os << "\n";
        break;
      case wire::Response::Kind::kRoute:
        os << "ROUTE" << head << status;
        if (r.ok) {
          os << (r.feasible ? " feasible dist=" : " infeasible dist=")
             << r.dist << " path=" << join(r.path) << routes_of(r);
        }
        os << "\n";
        break;
      case wire::Response::Kind::kReport:
        os << "REPORT" << head << status;
        if (r.ok) {
          os << " radius=" << r.report.radius
             << " diameter=" << r.report.diameter
             << " pairs=" << r.report.reachable_pairs << " sources=";
          for (const query::SourceReport& s : r.report.per_source) {
            os << " " << s.eccentricity << "/" << s.farness << "/"
               << s.reached;
          }
        }
        os << "\n";
        break;
      case wire::Response::Kind::kBc:
        os << "BC" << head << status;
        for (const double c : r.centrality) os << " " << c;
        os << "\n";
        break;
      case wire::Response::Kind::kError:
        os << "ERROR" << head << static_cast<int>(f->code) << " "
           << error_code_name(f->code) << ": " << f->message << "\n";
        break;
    }
  }
  return os.str();
}

std::string observe(const Row& row) {
  std::ostringstream out;
  const int errors = run_session(row, out);
  std::string seen;
  if (row.fmt == Fmt::kBinary) {
    seen = render_frames(out.str());
  } else if (row.fmt == Fmt::kJson) {
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      EXPECT_TRUE(obs::json_valid(line)) << line;
    }
    seen = mask_json_stats(out.str());
  } else {
    seen = mask_text_stats(out.str());
  }
  return seen + "-- errors " + std::to_string(errors) + "\n";
}

void expect_rows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string seen = observe(row);
    EXPECT_EQ(seen, row.want)
        << "observed row " << row.name << ":\nR\"~(" << seen << ")~\"";
  }
}

// --- binary request builders -----------------------------------------------

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// A request payload header ("DQ", version 1, `op`) followed by u32 fields.
std::string payload(std::uint8_t op, std::vector<std::uint32_t> fields = {}) {
  std::string p = "DQ";
  p.push_back('\x01');
  p.push_back(static_cast<char>(op));
  for (const std::uint32_t f : fields) put_u32(p, f);
  return p;
}

std::string frame(const std::string& p) {
  std::string buf;
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  return buf + p;
}

std::vector<Query> point_queries(
    std::vector<std::tuple<QueryType, NodeId, NodeId>> qs) {
  std::vector<Query> out;
  for (const auto& [t, u, v] : qs) {
    Query q;
    q.type = t;
    q.u = u;
    q.v = v;
    out.push_back(q);
  }
  return out;
}

query::RouteConstraints constraints(std::uint32_t hops,
                                    std::vector<NodeId> nodes,
                                    std::vector<std::pair<NodeId, NodeId>> edges) {
  query::RouteConstraints c;
  c.max_hops = hops;
  c.avoid_nodes = std::move(nodes);
  c.avoid_edges = std::move(edges);
  return c;
}

constexpr QueryType kD = QueryType::kDist;
constexpr QueryType kN = QueryType::kNextHop;
constexpr QueryType kP = QueryType::kPath;
constexpr std::size_t kBig = 1 << 16;

// --- line sessions ---------------------------------------------------------

const char* const kQueries =
    "# every query family on the exact closure\n"
    "dist 0 4\n"
    "next 0 4\n"
    "path 0 4\n"
    "\n"
    "dist 0 5\n"
    "next 0 5\n"
    "path 0 5\n"
    "dist 2 2\n"
    "next 2 2\n"
    "path 2 2\n"
    "path 0 4\n"
    "   \t \n"
    "  # indented comment\n"
    "dist 0 99\n"
    "next 99 0\n"
    "kpath 0 4 3\n"
    "kpath 0 5 2\n"
    "kpath 99 0 1\n"
    "kpath 0 4 65\n"
    "route 0 4\n"
    "route 0 4 avoid=1\n"
    "route 0 4 avoid=3\n"
    "route 0 3 hops=1\n"
    "route 5 4 hops=2 avoidedge=0-1,2-3\n"
    "route 0 5\n"
    "route 0 99\n"
    "report\n"
    "report\n"
    "bc\n"
    "bc 2\n"
    "stats\n"
    "quit\n"
    "dist 0 1\n";

const char* const kParse =
    "hop 1 2\n"
    "dist 1\n"
    "dist 1 2 3\n"
    "dist a b\n"
    "kpath 0 4\n"
    "kpath 0 4 0\n"
    "route 0 4 hops=x\n"
    "route 0 4 avoid=a\n"
    "route 0 4 avoidedge=3\n"
    "route 0 4 frob=1\n"
    "report 3\n"
    "bc x\n"
    "bc 1 2\n"
    "evil\" 0 1\n"
    "back\\slash 0 1\n"
    "dist 0 1\n"
    "stats\n"
    "exit\n"
    "dist 0 2\n";

const char* const kApproxScript =
    "dist 0 4\n"
    "dist 0 5\n"
    "next 0 4\n"
    "path 0 4\n"
    "kpath 0 4 2\n"
    "route 0 4\n"
    "report\n"
    "bc\n"
    "stats\n";

const char* const kBatch =
    "batch 3\n"
    "dist 0 4\n"
    "# comments and blank lines inside a batch are skipped\n"
    "\n"
    "bogus 1 2\n"
    "path 0 4\n"
    "batch\n"
    "batch x\n"
    "batch 1 2\n"
    "batch 0\n"
    "batch 3\n"
    "next 0 4\n"
    "kpath 0 4 2\n"
    "path 0 4\n"
    "stats\n";

const char* const kBatchLimit =
    "batch 3\n"
    "dist 0 1\n"
    "# skipped\n"
    "dist 0 2\n"
    "dist 0 3\n"
    "dist 0 4\n"
    "batch 2\n"
    "path 0 4\n"
    "path 0 4\n"
    "stats\n"
    "batch 5\n"
    "dist 0 1\n";

const char* const kBatchTruncated =
    "dist 0 1\n"
    "batch 4\n"
    "dist 0 1\n"
    "\n"
    "dist 0 2\n";

const char* const kRebuild = "rebuild\nstats\n";

const std::vector<Row>& text_rows() {
  static const std::vector<Row> rows = {
      {"queries", Fmt::kText, Closure::kExact, Hook::kNone, kBig, kQueries,
       R"~(dist 0 4 = 2
next 0 4 = 1 (dist 2)
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
dist 0 5 = unreachable
next 0 5 = unreachable
path 0 5 = unreachable
dist 2 2 = 0
next 2 2 = - (dist 0)
path 2 2 = 2 (dist 0, 0 hops)
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
error: node id out of range (n=6)
error: node id out of range (n=6)
kpath 0 4 = 3 paths
  [1] 0 1 3 4 (dist 2, 3 hops)
  [2] 0 2 3 4 (dist 4, 3 hops)
  [3] 0 3 4 (dist 5, 2 hops)
kpath 0 5 = unreachable
error: node id out of range (n=6)
error: k must be in [1, 64]
route 0 4 = 0 1 3 4 (dist 2, 3 hops)
route 0 4 = 0 2 3 4 (dist 4, 3 hops)
route 0 4 = infeasible
route 0 3 = 0 3 (dist 5, 1 hops)
route 5 4 = infeasible
route 0 5 = infeasible
error: node id out of range (n=6)
report = radius 2, diameter 6, reachable_pairs 25, sources 6
report = radius 2, diameter 6, reachable_pairs 25, sources 6
bc = 6 nodes, top: 0=11 3=8 4=7 1=5 2=0 5=0
bc = 6 nodes, top: 4=3 0=2 1=2 3=1 2=0 5=0
queries=22 errors=5 protocol_errors=0 batches=0 dist[n=3 mean_ns=* p99_ns=* max_ns=*] next[n=3 mean_ns=* p99_ns=* max_ns=*] path[n=4 mean_ns=* p99_ns=* max_ns=*] kpath[n=2 mean_ns=* p99_ns=* max_ns=*] route[n=6 mean_ns=* p99_ns=* max_ns=*] report[n=2 mean_ns=* p99_ns=* max_ns=*] bc[n=2 mean_ns=* p99_ns=* max_ns=*] cache[hits=2 misses=13 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 0
)~"},
      {"parse", Fmt::kText, Closure::kExact, Hook::kNone, kBig, kParse, R"~(error: unknown query type 'hop' (dist|next|path|kpath|route|report|bc)
error: expected 'dist U V ...'
error: expected 'dist U V'
error: node ids must be non-negative integers
error: expected 'kpath U V K'
error: k must be a positive integer
error: hops= must be a non-negative integer
error: avoid= must be node ids separated by commas
error: avoidedge= must be a-b pairs separated by commas
error: unknown route option 'frob=1' (hops=|avoid=|avoidedge=)
error: expected 'report' with no arguments
error: bc sample count must be a non-negative integer
error: expected 'bc [SAMPLES]'
error: unknown query type 'evil"' (dist|next|path|kpath|route|report|bc)
error: unknown query type 'back\slash' (dist|next|path|kpath|route|report|bc)
dist 0 1 = 1
queries=1 errors=0 protocol_errors=15 batches=0 dist[n=1 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=0 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=0 misses=0 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 15
)~"},
      {"approx", Fmt::kText, Closure::kApprox, Hook::kNone, kBig,
       kApproxScript, R"~(dist 0 4 = 2
dist 0 5 = unreachable
error: oracle is distance-only (no next-hop table)
error: oracle is distance-only (no next-hop table)
error: oracle is distance-only (no next-hop table)
error: oracle is distance-only (no next-hop table)
error: report/bc require exact distances (snapshot is approximate)
error: report/bc require exact distances (snapshot is approximate)
queries=2 errors=6 protocol_errors=0 batches=0 dist[n=2 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=0 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=0 misses=0 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 0
)~"},
      {"batch", Fmt::kText, Closure::kExact, Hook::kNone, kBig, kBatch, R"~(dist 0 4 = 2
error: unknown query type 'bogus' (dist|next|path|kpath|route|report|bc)
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
error: batch needs a count: 'batch N'
error: batch needs a count: 'batch N'
error: batch needs a count: 'batch N'
next 0 4 = 1 (dist 2)
kpath 0 4 = 2 paths
  [1] 0 1 3 4 (dist 2, 3 hops)
  [2] 0 2 3 4 (dist 4, 3 hops)
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
queries=5 errors=0 protocol_errors=4 batches=3 dist[n=1 mean_ns=* p99_ns=* max_ns=*] next[n=1 mean_ns=* p99_ns=* max_ns=*] path[n=2 mean_ns=* p99_ns=* max_ns=*] kpath[n=1 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=1 misses=2 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 4
)~"},
      {"batch_limit", Fmt::kText, Closure::kExact, Hook::kNone, 2, kBatchLimit,
       R"~(error: batch of 3 exceeds max batch size 2
dist 0 4 = 2
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
path 0 4 = 0 1 3 4 (dist 2, 3 hops)
queries=3 errors=0 protocol_errors=1 batches=1 dist[n=1 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=2 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=1 misses=1 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
error: batch of 5 exceeds max batch size 2
-- errors 2
)~"},
      {"batch_truncated", Fmt::kText, Closure::kExact, Hook::kNone, kBig,
       kBatchTruncated, R"~(dist 0 1 = 1
error: batch of 4 truncated by end of input after 2 lines
-- errors 1
)~"},
      {"rebuild_none", Fmt::kText, Closure::kExact, Hook::kNone, kBig,
       kRebuild, R"~(error: no rebuild hook installed for this session
queries=0 errors=0 protocol_errors=1 batches=0 dist[n=0 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=0 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=0 misses=0 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 1
)~"},
      {"rebuild_ok", Fmt::kText, Closure::kExact, Hook::kOk, kBig, kRebuild,
       R"~(rebuild: epoch=7 build_ns=1234
queries=0 errors=0 protocol_errors=0 batches=0 dist[n=0 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=0 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=0 misses=0 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 0
)~"},
      {"rebuild_fail", Fmt::kText, Closure::kExact, Hook::kFail, kBig,
       kRebuild, R"~(error: rebuild failed: boom
queries=0 errors=0 protocol_errors=0 batches=0 dist[n=0 mean_ns=* p99_ns=* max_ns=*] next[n=0 mean_ns=* p99_ns=* max_ns=*] path[n=0 mean_ns=* p99_ns=* max_ns=*] kpath[n=0 mean_ns=* p99_ns=* max_ns=*] route[n=0 mean_ns=* p99_ns=* max_ns=*] report[n=0 mean_ns=* p99_ns=* max_ns=*] bc[n=0 mean_ns=* p99_ns=* max_ns=*] cache[hits=0 misses=0 evictions=0] snapshot[epoch=0 swaps=0 shards=1]
-- errors 0
)~"},
  };
  return rows;
}

const std::vector<Row>& json_rows() {
  static const std::vector<Row> rows = {
      {"queries", Fmt::kJson, Closure::kExact, Hook::kNone, kBig, kQueries,
       R"~({"type":"dist","u":0,"v":4,"ok":true,"dist":2}
{"type":"next","u":0,"v":4,"ok":true,"dist":2,"next":1}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"type":"dist","u":0,"v":5,"ok":true,"dist":null}
{"type":"next","u":0,"v":5,"ok":true,"dist":null}
{"type":"path","u":0,"v":5,"ok":true,"dist":null}
{"type":"dist","u":2,"v":2,"ok":true,"dist":0}
{"type":"next","u":2,"v":2,"ok":true,"dist":0}
{"type":"path","u":2,"v":2,"ok":true,"dist":0,"path":[2]}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"type":"dist","u":0,"v":99,"ok":false,"error":"node id out of range (n=6)"}
{"type":"next","u":99,"v":0,"ok":false,"error":"node id out of range (n=6)"}
{"type":"kpath","u":0,"v":4,"ok":true,"routes":[{"dist":2,"path":[0,1,3,4]},{"dist":4,"path":[0,2,3,4]},{"dist":5,"path":[0,3,4]}]}
{"type":"kpath","u":0,"v":5,"ok":true,"routes":[]}
{"type":"kpath","u":99,"v":0,"ok":false,"error":"node id out of range (n=6)"}
{"type":"kpath","u":0,"v":4,"ok":false,"error":"k must be in [1, 64]"}
{"type":"route","u":0,"v":4,"ok":true,"feasible":true,"dist":2,"path":[0,1,3,4]}
{"type":"route","u":0,"v":4,"ok":true,"feasible":true,"dist":4,"path":[0,2,3,4]}
{"type":"route","u":0,"v":4,"ok":true,"feasible":false}
{"type":"route","u":0,"v":3,"ok":true,"feasible":true,"dist":5,"path":[0,3]}
{"type":"route","u":5,"v":4,"ok":true,"feasible":false}
{"type":"route","u":0,"v":5,"ok":true,"feasible":false}
{"type":"route","u":0,"v":99,"ok":false,"error":"node id out of range (n=6)"}
{"type":"report","u":0,"v":0,"ok":true,"radius":2,"diameter":6,"reachable_pairs":25,"sources":[{"ecc":2,"farness":7,"reached":4},{"ecc":6,"farness":12,"reached":4},{"ecc":6,"farness":15,"reached":4},{"ecc":5,"farness":12,"reached":4},{"ecc":5,"farness":17,"reached":4},{"ecc":4,"farness":17,"reached":5}]}
{"type":"report","u":0,"v":0,"ok":true,"radius":2,"diameter":6,"reachable_pairs":25,"sources":[{"ecc":2,"farness":7,"reached":4},{"ecc":6,"farness":12,"reached":4},{"ecc":6,"farness":15,"reached":4},{"ecc":5,"farness":12,"reached":4},{"ecc":5,"farness":17,"reached":4},{"ecc":4,"farness":17,"reached":5}]}
{"type":"bc","u":0,"v":0,"ok":true,"centrality":[11,5,0,8,7,0]}
{"type":"bc","u":0,"v":0,"ok":true,"centrality":[2,2,0,1,3,0]}
{"stats":{"queries":22,"errors":5,"protocol_errors":0,"batches":0,"types":{"dist":{"count":3,"errors":1,"error_ns":*,"latency_ns":{"count":3,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":3,"errors":1,"error_ns":*,"latency_ns":{"count":3,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":4,"errors":0,"error_ns":*,"latency_ns":{"count":4,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":2,"errors":2,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":6,"errors":1,"error_ns":*,"latency_ns":{"count":6,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":2,"misses":13,"evictions":0,"hit_rate":0.13333333333333333},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 0
)~"},
      {"parse", Fmt::kJson, Closure::kExact, Hook::kNone, kBig, kParse, R"~({"ok":false,"code":"parse_error","error":"unknown query type 'hop' (dist|next|path|kpath|route|report|bc)"}
{"ok":false,"code":"parse_error","error":"expected 'dist U V ...'"}
{"ok":false,"code":"parse_error","error":"expected 'dist U V'"}
{"ok":false,"code":"parse_error","error":"node ids must be non-negative integers"}
{"ok":false,"code":"parse_error","error":"expected 'kpath U V K'"}
{"ok":false,"code":"parse_error","error":"k must be a positive integer"}
{"ok":false,"code":"parse_error","error":"hops= must be a non-negative integer"}
{"ok":false,"code":"parse_error","error":"avoid= must be node ids separated by commas"}
{"ok":false,"code":"parse_error","error":"avoidedge= must be a-b pairs separated by commas"}
{"ok":false,"code":"parse_error","error":"unknown route option 'frob=1' (hops=|avoid=|avoidedge=)"}
{"ok":false,"code":"parse_error","error":"expected 'report' with no arguments"}
{"ok":false,"code":"parse_error","error":"bc sample count must be a non-negative integer"}
{"ok":false,"code":"parse_error","error":"expected 'bc [SAMPLES]'"}
{"ok":false,"code":"parse_error","error":"unknown query type 'evil\"' (dist|next|path|kpath|route|report|bc)"}
{"ok":false,"code":"parse_error","error":"unknown query type 'back\\slash' (dist|next|path|kpath|route|report|bc)"}
{"type":"dist","u":0,"v":1,"ok":true,"dist":1}
{"stats":{"queries":1,"errors":0,"protocol_errors":15,"batches":0,"types":{"dist":{"count":1,"errors":0,"error_ns":*,"latency_ns":{"count":1,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 15
)~"},
      {"approx", Fmt::kJson, Closure::kApprox, Hook::kNone, kBig,
       kApproxScript, R"~({"type":"dist","u":0,"v":4,"ok":true,"dist":2}
{"type":"dist","u":0,"v":5,"ok":true,"dist":null}
{"type":"next","u":0,"v":4,"ok":false,"error":"oracle is distance-only (no next-hop table)"}
{"type":"path","u":0,"v":4,"ok":false,"error":"oracle is distance-only (no next-hop table)"}
{"type":"kpath","u":0,"v":4,"ok":false,"error":"oracle is distance-only (no next-hop table)"}
{"type":"route","u":0,"v":4,"ok":false,"error":"oracle is distance-only (no next-hop table)"}
{"type":"report","u":0,"v":0,"ok":false,"error":"report/bc require exact distances (snapshot is approximate)"}
{"type":"bc","u":0,"v":0,"ok":false,"error":"report/bc require exact distances (snapshot is approximate)"}
{"stats":{"queries":2,"errors":6,"protocol_errors":0,"batches":0,"types":{"dist":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":288}]}}}
-- errors 0
)~"},
      {"batch", Fmt::kJson, Closure::kExact, Hook::kNone, kBig, kBatch, R"~({"type":"dist","u":0,"v":4,"ok":true,"dist":2}
{"ok":false,"code":"parse_error","error":"unknown query type 'bogus' (dist|next|path|kpath|route|report|bc)"}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"ok":false,"code":"parse_error","error":"batch needs a count: 'batch N'"}
{"ok":false,"code":"parse_error","error":"batch needs a count: 'batch N'"}
{"ok":false,"code":"parse_error","error":"batch needs a count: 'batch N'"}
{"type":"next","u":0,"v":4,"ok":true,"dist":2,"next":1}
{"type":"kpath","u":0,"v":4,"ok":true,"routes":[{"dist":2,"path":[0,1,3,4]},{"dist":4,"path":[0,2,3,4]}]}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"stats":{"queries":5,"errors":0,"protocol_errors":4,"batches":3,"types":{"dist":{"count":1,"errors":0,"error_ns":*,"latency_ns":{"count":1,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":1,"errors":0,"error_ns":*,"latency_ns":{"count":1,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":1,"errors":0,"error_ns":*,"latency_ns":{"count":1,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":1,"misses":2,"evictions":0,"hit_rate":0.3333333333333333},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 4
)~"},
      {"batch_limit", Fmt::kJson, Closure::kExact, Hook::kNone, 2, kBatchLimit,
       R"~({"ok":false,"code":"batch_too_large","error":"batch of 3 exceeds max batch size 2"}
{"type":"dist","u":0,"v":4,"ok":true,"dist":2}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"type":"path","u":0,"v":4,"ok":true,"dist":2,"path":[0,1,3,4]}
{"stats":{"queries":3,"errors":0,"protocol_errors":1,"batches":1,"types":{"dist":{"count":1,"errors":0,"error_ns":*,"latency_ns":{"count":1,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":1,"misses":1,"evictions":0,"hit_rate":0.5},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
{"ok":false,"code":"batch_too_large","error":"batch of 5 exceeds max batch size 2"}
-- errors 2
)~"},
      {"batch_truncated", Fmt::kJson, Closure::kExact, Hook::kNone, kBig,
       kBatchTruncated, R"~({"type":"dist","u":0,"v":1,"ok":true,"dist":1}
{"ok":false,"code":"batch_truncated","error":"batch of 4 truncated by end of input after 2 lines"}
-- errors 1
)~"},
      {"rebuild_none", Fmt::kJson, Closure::kExact, Hook::kNone, kBig,
       kRebuild, R"~({"ok":false,"code":"rebuild_unavailable","error":"no rebuild hook installed for this session"}
{"stats":{"queries":0,"errors":0,"protocol_errors":1,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 1
)~"},
      {"rebuild_ok", Fmt::kJson, Closure::kExact, Hook::kOk, kBig, kRebuild,
       R"~({"rebuild":{"ok":true,"epoch":7,"build_ns":1234}}
{"stats":{"queries":0,"errors":0,"protocol_errors":0,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 0
)~"},
      {"rebuild_fail", Fmt::kJson, Closure::kExact, Hook::kFail, kBig,
       kRebuild, R"~({"rebuild":{"ok":false,"error":"boom"}}
{"stats":{"queries":0,"errors":0,"protocol_errors":0,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}}
-- errors 0
)~"},
  };
  return rows;
}

// --- binary sessions -------------------------------------------------------

std::string every_opcode() {
  std::string req;
  wire::append_batch_request(
      req, point_queries({{kD, 0, 4}, {kN, 0, 4}, {kP, 0, 4}, {kD, 0, 5},
                          {kN, 0, 5}, {kP, 0, 5}, {kD, 2, 2}, {kN, 2, 2},
                          {kP, 2, 2}, {kP, 0, 4}, {kD, 0, 99}, {kN, 99, 0}}));
  wire::append_batch_request(req, {});
  wire::append_kpath_request(req, 0, 4, 3);
  wire::append_kpath_request(req, 0, 5, 2);
  wire::append_kpath_request(req, 99, 0, 1);
  wire::append_kpath_request(req, 0, 4, 65);
  wire::append_route_request(req, 0, 4, {});
  wire::append_route_request(req, 0, 4, constraints(0, {1}, {}));
  wire::append_route_request(req, 0, 4, constraints(0, {3}, {}));
  wire::append_route_request(req, 0, 3, constraints(1, {}, {}));
  wire::append_route_request(req, 5, 4,
                             constraints(2, {}, {{0, 1}, {2, 3}}));
  wire::append_route_request(req, 0, 5, {});
  wire::append_route_request(req, 0, 99, {});
  wire::append_report_request(req);
  wire::append_report_request(req);
  wire::append_bc_request(req, 0);
  wire::append_bc_request(req, 2);
  wire::append_stats_request(req);
  wire::append_quit_request(req);
  wire::append_stats_request(req);  // never answered
  return req;
}

std::string approx_opcodes() {
  std::string req;
  wire::append_batch_request(
      req, point_queries({{kD, 0, 4}, {kD, 0, 5}, {kN, 0, 4}, {kP, 0, 4}}));
  wire::append_kpath_request(req, 0, 4, 2);
  wire::append_route_request(req, 0, 4, {});
  wire::append_report_request(req);
  wire::append_bc_request(req, 0);
  wire::append_stats_request(req);
  return req;
}

std::string rebuild_frames() {
  std::string req;
  wire::append_rebuild_request(req);
  wire::append_stats_request(req);
  return req;
}

/// Every recoverable error class; the session answers the STATS at the end.
std::string recoverable_errors() {
  std::string req;
  req += frame("XX\x01\x01");                       // bad magic
  req += frame("D");                                // shorter than the magic
  req += frame(std::string("DQ\x07\x01", 4));       // bad version
  req += frame(std::string("DQ\x01", 3));           // no opcode
  req += frame(std::string("DQ\x01\x7f", 4));       // bad opcode
  req += frame(payload(0x01));                      // batch without count
  std::string short_batch = payload(0x01, {2});     // declares 2, holds 1
  short_batch.push_back('\0');
  put_u32(short_batch, 0);
  put_u32(short_batch, 1);
  req += frame(short_batch);
  std::string bad_type = payload(0x01, {2});        // qtype 9 in position 2
  bad_type.push_back('\0');
  put_u32(bad_type, 0);
  put_u32(bad_type, 1);
  bad_type.push_back('\x09');
  put_u32(bad_type, 0);
  put_u32(bad_type, 1);
  req += frame(bad_type);
  std::string analytics_type = payload(0x01, {1});  // kpath is not a point type
  analytics_type.push_back('\x03');
  put_u32(analytics_type, 0);
  put_u32(analytics_type, 1);
  req += frame(analytics_type);
  wire::append_batch_request(req, point_queries({{kD, 0, 1}, {kD, 0, 2},
                                                 {kD, 0, 3}}));  // > max_batch
  req += frame(payload(0x01, {3}));  // > max_batch beats the short body
  req += frame(payload(0x05, {0, 4}));              // kpath without k
  req += frame(payload(0x05, {0, 4, 1}) + '\0');    // kpath trailing byte
  req += frame(payload(0x05, {0, 4, 0}));           // kpath k = 0
  req += frame(payload(0x06, {0, 4, 0, 0}));        // route header short
  req += frame(payload(0x06, {0, 4, 0, 3, 0, 2}));  // 3 avoid nodes, 1 sent
  req += frame(payload(0x06, {0, 4, 0, 1, 0, 2, 7}));  // trailing bytes
  req += frame(payload(0x06, {0, 4, 0, 0xFFFFFFFFu, 0}));  // hostile nodes
  req += frame(payload(0x06, {0, 4, 0, 0, 4097}));  // edges over max_avoid
  req += frame(payload(0x07) + '\0');               // report trailing byte
  req += frame(payload(0x08) + std::string(2, '\0'));  // bc short
  req += frame(payload(0x08, {0}) + '\0');          // bc trailing byte
  wire::append_stats_request(req);
  return req;
}

/// A batch body longer than its declared count.
std::string long_batch() {
  std::string p = payload(0x01, {1});
  for (int i = 0; i < 2; ++i) {
    p.push_back('\0');
    put_u32(p, 0);
    put_u32(p, 1);
  }
  std::string req = frame(p);
  wire::append_stats_request(req);
  return req;
}

/// `op` with a 4-byte body it does not take, then a REPORT.
std::string body_on_empty_opcode(std::uint8_t op) {
  std::string req = frame(payload(op, {0}));
  wire::append_report_request(req);
  return req;
}

std::string oversized_prefix() {
  std::string req;
  put_u32(req, (64u << 20) + 1);
  wire::append_stats_request(req);
  return req;
}

std::string short_prefix() {
  std::string req;
  wire::append_report_request(req);
  req += std::string(2, '\0');
  return req;
}

std::string short_payload() {
  std::string req;
  wire::append_report_request(req);
  put_u32(req, 100);
  return req + "short";
}

const std::vector<Row>& binary_rows() {
  static const std::vector<Row> rows = {
      {"every_opcode", Fmt::kBinary, Closure::kExact, Hook::kOk, kBig,
       every_opcode(), R"~(BATCH(288) 12
  dist ok dist=2 next=4294967295 path=
  next ok dist=2 next=1 path=
  path ok dist=2 next=4294967295 path=0,1,3,4
  dist ok dist=1152921504606846976 next=4294967295 path=
  next ok dist=1152921504606846976 next=4294967295 path=
  path ok dist=1152921504606846976 next=4294967295 path=
  dist ok dist=0 next=4294967295 path=
  next ok dist=0 next=4294967295 path=
  path ok dist=0 next=4294967295 path=2
  path ok dist=2 next=4294967295 path=0,1,3,4
  dist err node id out of range (n=6)
  next err node id out of range (n=6)
BATCH(8) 0
KPATH(89) ok dist=2 2:0,1,3,4 4:0,2,3,4 5:0,3,4
KPATH(9) ok dist=1152921504606846976
KPATH(35) err node id out of range (n=6)
KPATH(29) err k must be in [1, 64]
ROUTE(34) ok feasible dist=2 path=0,1,3,4 2:0,1,3,4
ROUTE(34) ok feasible dist=4 path=0,2,3,4 4:0,2,3,4
ROUTE(6) ok infeasible dist=1152921504606846976 path=
ROUTE(26) ok feasible dist=5 path=0,3 5:0,3
ROUTE(6) ok infeasible dist=1152921504606846976 path=
ROUTE(6) ok infeasible dist=1152921504606846976 path=
ROUTE(35) err node id out of range (n=6)
REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
BC(57) ok 11 5 0 8 7 0
BC(57) ok 2 2 0 1 3 0
STATS {"queries":22,"errors":5,"protocol_errors":0,"batches":2,"types":{"dist":{"count":3,"errors":1,"error_ns":*,"latency_ns":{"count":3,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":3,"errors":1,"error_ns":*,"latency_ns":{"count":3,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":4,"errors":0,"error_ns":*,"latency_ns":{"count":4,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":2,"errors":2,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":6,"errors":1,"error_ns":*,"latency_ns":{"count":6,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":2,"misses":13,"evictions":0,"hit_rate":0.13333333333333333},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 0
)~"},
      {"approx", Fmt::kBinary, Closure::kApprox, Hook::kNone, kBig,
       approx_opcodes(), R"~(BATCH(142) 4
  dist ok dist=2 next=4294967295 path=
  dist ok dist=1152921504606846976 next=4294967295 path=
  next err oracle is distance-only (no next-hop table)
  path err oracle is distance-only (no next-hop table)
KPATH(52) err oracle is distance-only (no next-hop table)
ROUTE(52) err oracle is distance-only (no next-hop table)
REPORT(68) err report/bc require exact distances (snapshot is approximate)
BC(68) err report/bc require exact distances (snapshot is approximate)
STATS {"queries":2,"errors":6,"protocol_errors":0,"batches":1,"types":{"dist":{"count":2,"errors":0,"error_ns":*,"latency_ns":{"count":2,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":1,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":288}]}}
-- errors 0
)~"},
      {"rebuild_none", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       rebuild_frames(), R"~(ERROR(52) 13 rebuild_unavailable: no rebuild hook installed for this session
STATS {"queries":0,"errors":0,"protocol_errors":1,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 1
)~"},
      {"rebuild_ok", Fmt::kBinary, Closure::kExact, Hook::kOk, kBig,
       rebuild_frames(), R"~(REBUILD(20) epoch=7 build_ns=1234
STATS {"queries":0,"errors":0,"protocol_errors":0,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 0
)~"},
      {"rebuild_fail", Fmt::kBinary, Closure::kExact, Hook::kFail, kBig,
       rebuild_frames(), R"~(ERROR(30) 14 rebuild_failed: rebuild failed: boom
STATS {"queries":0,"errors":0,"protocol_errors":0,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 0
)~"},
      {"recoverable_errors", Fmt::kBinary, Closure::kExact, Hook::kNone, 2,
       recoverable_errors(), R"~(ERROR(42) 1 bad_magic: request does not start with 'DQ'
ERROR(42) 1 bad_magic: request does not start with 'DQ'
ERROR(40) 2 bad_version: unsupported protocol version 7
ERROR(45) 4 truncated: request header shorter than 4 bytes
ERROR(36) 3 bad_opcode: unknown request opcode 127
ERROR(39) 4 truncated: batch frame missing its count
ERROR(51) 4 truncated: batch body holds 1 queries but declares 2
ERROR(94) 7 bad_query_type: batch contains a query type outside dist/next/path (analytics use dedicated opcodes)
ERROR(94) 7 bad_query_type: batch contains a query type outside dist/next/path (analytics use dedicated opcodes)
ERROR(48) 6 batch_too_large: batch of 3 queries exceeds max_batch=2
ERROR(48) 6 batch_too_large: batch of 3 queries exceeds max_batch=2
ERROR(42) 4 truncated: kpath body shorter than 12 bytes
ERROR(39) 10 bad_body: kpath body has trailing bytes
ERROR(30) 8 bad_k: kpath k must be >= 1
ERROR(44) 4 truncated: route header shorter than 20 bytes
ERROR(55) 4 truncated: route avoid sets truncated (4 bytes, need 12)
ERROR(39) 10 bad_body: route body has trailing bytes
ERROR(48) 9 bad_avoid_set: route avoid set exceeds max_avoid=4096
ERROR(48) 9 bad_avoid_set: route avoid set exceeds max_avoid=4096
ERROR(35) 10 bad_body: report body must be empty
ERROR(38) 4 truncated: bc body shorter than 4 bytes
ERROR(36) 10 bad_body: bc body has trailing bytes
STATS {"queries":0,"errors":0,"protocol_errors":22,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 22
)~"},
      {"long_batch", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       long_batch(), R"~(ERROR(51) 10 bad_body: batch body holds 2 queries but declares 1
STATS {"queries":0,"errors":0,"protocol_errors":1,"batches":0,"types":{"dist":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"next":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"path":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"kpath":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"route":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"report":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}},"bc":{"count":0,"errors":0,"error_ns":*,"latency_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*}}},"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"snapshot":{"epoch":0,"swaps":0,"shard_count":1,"swap_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"rebuild_ns":{"count":0,"sum":*,"min":*,"max":*,"mean":*,"p50":*,"p90":*,"p99":*},"shards":[{"row_begin":0,"row_end":6,"bytes":432}]}}
-- errors 1
)~"},
      {"stats_body", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       body_on_empty_opcode(0x02), R"~(ERROR(34) 10 bad_body: stats body must be empty
REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
-- errors 1
)~"},
      {"quit_body", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       body_on_empty_opcode(0x03), R"~(ERROR(33) 10 bad_body: quit body must be empty
REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
-- errors 1
)~"},
      {"rebuild_body", Fmt::kBinary, Closure::kExact, Hook::kOk, kBig,
       body_on_empty_opcode(0x04), R"~(ERROR(36) 10 bad_body: rebuild body must be empty
REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
-- errors 1
)~"},
      {"oversized_prefix", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       oversized_prefix(), R"~(ERROR(59) 5 frame_too_large: frame of 67108865 bytes exceeds limit of 67108864
-- errors 1
)~"},
      {"short_prefix", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       short_prefix(), R"~(REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
ERROR(45) 4 truncated: stream ended inside a length prefix
-- errors 1
)~"},
      {"short_payload", Fmt::kBinary, Closure::kExact, Hook::kNone, kBig,
       short_payload(), R"~(REPORT(153) ok radius=2 diameter=6 pairs=25 sources= 2/7/4 6/12/4 6/15/4 5/12/4 5/17/4 4/17/5
ERROR(45) 4 truncated: stream ended inside a frame payload
-- errors 1
)~"},
  };
  return rows;
}

// The error table of docs/SERVICE.md is rendered from kErrorCodes; on a
// mismatch the rendered table prints, ready to paste.
TEST(ErrorCodes, ServiceDocTableIsRenderedFromCode) {
  std::ostringstream table;
  table << "| code | name | meaning |\n|---|---|---|\n";
  for (std::size_t i = 0; i < kErrorCodes.size(); ++i) {
    table << "| " << i + 1 << " | `" << kErrorCodes[i][0] << "` | "
          << kErrorCodes[i][1] << " |\n";
  }
  std::ifstream doc(DAPSP_SOURCE_DIR "/docs/SERVICE.md");
  ASSERT_TRUE(doc) << "cannot open docs/SERVICE.md";
  const std::string text{std::istreambuf_iterator<char>(doc), {}};
  EXPECT_NE(text.find(table.str()), std::string::npos)
      << "docs/SERVICE.md must hold this table:\n"
      << table.str();
}

TEST(Transcript, Text) { expect_rows(text_rows()); }
TEST(Transcript, Jsonl) { expect_rows(json_rows()); }
TEST(Transcript, Binary) { expect_rows(binary_rows()); }

// A session's own errors reach its stats answer in every format: two
// malformed requests, then stats.
TEST(SessionStats, ProtocolErrorsReachStats) {
  std::string binary = frame("XX\x01\x01") + frame(payload(0x01));
  wire::append_stats_request(binary);
  const char* const text = "hop 0 1\nbatch x\nstats\n";
  const std::pair<Fmt, std::string> sessions[] = {
      {Fmt::kText, text}, {Fmt::kJson, text}, {Fmt::kBinary, binary}};
  for (const auto& [fmt, input] : sessions) {
    const std::string seen = observe(
        {"stats", fmt, Closure::kExact, Hook::kNone, kBig, input, ""});
    EXPECT_NE(seen.find(fmt == Fmt::kText ? "protocol_errors=2 "
                                          : "\"protocol_errors\":2,"),
              std::string::npos)
        << seen;
    EXPECT_NE(seen.find("-- errors 2"), std::string::npos) << seen;
  }
}

}  // namespace
}  // namespace dapsp::serve
