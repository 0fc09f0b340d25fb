#include "serve/session.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/json.hpp"
#include "serve/session_loop.hpp"
#include "serve/wire.hpp"

namespace dapsp::serve {

using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using service::Query;
using service::QueryResult;
using service::QueryType;

namespace {

/// A whole token as an unsigned decimal.
template <class T = NodeId>
std::optional<T> parse_uint(std::string_view tok) {
  T out = 0;
  const auto* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

template <class T>
void put_list(std::ostream& out, const std::vector<T>& xs, const char* sep) {
  for (std::size_t i = 0; i < xs.size(); ++i) out << (i ? sep : "") << xs[i];
}

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

/// Reads the next line that is neither blank nor a '#' comment.
bool next_line(std::istream& in, std::string& line,
               std::vector<std::string_view>& toks) {
  while (std::getline(in, line)) {
    toks = split_ws(line);
    if (!toks.empty() && toks[0].front() != '#') return true;
  }
  return false;
}

/// Calls `item` on each token of the comma-separated list `s` (an empty
/// string has none); false as soon as one fails.
template <class F>
bool for_each_item(std::string_view s, F item) {
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    if (!item(s.substr(0, comma))) return false;
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return true;
}

/// Parses "a,b,c" into ids.
bool parse_node_list(std::string_view s, std::vector<NodeId>* out) {
  return for_each_item(s, [out](std::string_view tok) {
    const auto x = parse_uint(tok);
    if (x) out->push_back(*x);
    return x.has_value();
  });
}

/// Parses "a-b,c-d" into endpoint pairs.
bool parse_edge_list(std::string_view s,
                     std::vector<std::pair<NodeId, NodeId>>* out) {
  return for_each_item(s, [out](std::string_view tok) {
    const std::size_t dash = tok.find('-');
    if (dash == std::string_view::npos) return false;
    const auto a = parse_uint(tok.substr(0, dash));
    const auto b = parse_uint(tok.substr(dash + 1));
    if (a && b) out->emplace_back(*a, *b);
    return a && b;
  });
}

void write_route_text(const query::Route& rt, std::ostream& out) {
  put_list(out, rt.nodes, " ");
  out << " (dist " << rt.weight << ", " << rt.hops() << " hops)";
}

/// Text and JSONL: one line per request, one line (or, for kpath text, one
/// block) per answer.
class LineCodec {
 public:
  LineCodec(std::istream& in, std::ostream& out, bool json)
      : in_(in), out_(out), json_(json) {}

  bool read(Request& req) {
    std::string line;
    std::vector<std::string_view> toks;
    if (!next_line(in_, line, toks)) return false;
    req = Request{};
    if (toks[0] == "quit" || toks[0] == "exit") {
      req.kind = Request::Kind::kQuit;
    } else if (toks[0] == "stats") {
      req.kind = Request::Kind::kStats;
    } else if (toks[0] == "rebuild") {
      req.kind = Request::Kind::kRebuild;
    } else if (toks[0] == "batch") {
      const auto count = toks.size() == 2
                             ? parse_uint<std::uint64_t>(toks[1])
                             : std::nullopt;
      if (count) {
        req.kind = Request::Kind::kBatch;
        req.count = *count;
      } else {
        req.reject(ErrorCode::kParseError, "batch needs a count: 'batch N'");
      }
    } else if (auto q = parse_query(line, &req.message)) {
      req.kind = Request::Kind::kQuery;
      req.queries.push_back(std::move(*q));
    } else {
      req.reject(ErrorCode::kParseError, std::move(req.message));
    }
    return true;
  }

  /// The body is the next `count` query lines; blank lines and comments
  /// are skipped there too.  Parse failures keep their position so answers
  /// line up 1:1 with the body.
  void read_batch(Request& req, bool keep) {
    std::string line;
    std::vector<std::string_view> toks;
    std::uint64_t seen = 0;
    for (; seen < req.count && next_line(in_, line, toks); ++seen) {
      if (!keep) continue;
      std::string error;
      if (auto q = parse_query(line, &error)) {
        req.queries.push_back(std::move(*q));
      } else {
        req.parse_errors.emplace_back(seen, std::move(error));
      }
    }
    if (keep && seen < req.count) {
      req.reject(ErrorCode::kBatchTruncated,
                 "batch of " + std::to_string(req.count) +
                     " truncated by end of input after " +
                     std::to_string(seen) + " lines");
    }
  }

  std::string too_large(std::uint64_t count, std::size_t max_batch) const {
    return "batch of " + std::to_string(count) +
           " exceeds max batch size " + std::to_string(max_batch);
  }

  /// The message may echo user input, so JSONL escapes it.
  void error(ErrorCode code, const std::string& msg) {
    if (json_) {
      out_ << "{\"ok\":false,\"code\":\"" << error_code_name(code)
           << "\",\"error\":";
      obs::write_json_string(out_, msg);
      out_ << "}\n";
    } else {
      out_ << "error: " << msg << "\n";
    }
  }

  void stats(const service::ServiceStats& st) {
    if (json_) {
      obs::JsonWriter w(out_);
      w.begin_object().key("stats");
      st.write_json(w);
      w.end_object();
      out_ << "\n";
    } else {
      out_ << st.summary() << "\n";
    }
  }

  void rebuilt(const RebuildOutcome& rc) {
    if (json_) {
      out_ << "{\"rebuild\":{\"ok\":" << (rc.ok ? "true" : "false");
      if (rc.ok) {
        out_ << ",\"epoch\":" << rc.epoch << ",\"build_ns\":" << rc.build_ns;
      } else {
        out_ << ",\"error\":";
        obs::write_json_string(out_, rc.error);
      }
      out_ << "}}\n";
    } else if (rc.ok) {
      out_ << "rebuild: epoch=" << rc.epoch << " build_ns=" << rc.build_ns
           << "\n";
    } else {
      out_ << "error: rebuild failed: " << rc.error << "\n";
    }
  }

  void answer(const QueryResult& r) {
    if (json_) {
      write_result_json(r, out_);
    } else {
      write_result_text(r, out_);
    }
  }

  void answer_batch(
      const std::vector<QueryResult>& results,
      const std::vector<std::pair<std::size_t, std::string>>& parse_errors) {
    auto bad = parse_errors.begin();
    auto good = results.begin();
    for (std::size_t i = 0; i < results.size() + parse_errors.size(); ++i) {
      if (bad != parse_errors.end() && bad->first == i) {
        error(ErrorCode::kParseError, bad++->second);
      } else {
        answer(*good++);
      }
    }
  }

 private:
  std::istream& in_;
  std::ostream& out_;
  bool json_;
};

}  // namespace

int serve_session(const service::QueryService& svc, std::istream& in,
                  std::ostream& out, Format format,
                  const SessionOptions& opts) {
  if (format == Format::kBinary) return wire::serve_binary(svc, in, out, opts);
  LineCodec io(in, out, format == Format::kJson);
  return run_session(svc, io, opts);
}

std::optional<Query> parse_query(std::string_view line, std::string* error) {
  const auto toks = split_ws(line);
  const auto fail = [error](std::string msg) -> std::optional<Query> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  if (toks.empty()) {
    return fail(
        "expected '<dist|next|path> U V', 'kpath U V K', 'route U V "
        "[hops=H] [avoid=...] [avoidedge=...]', 'report' or 'bc [SAMPLES]'");
  }
  Query q;
  // Zero-argument / optional-argument forms first.
  if (toks[0] == "report") {
    if (toks.size() != 1) return fail("expected 'report' with no arguments");
    q.type = QueryType::kReport;
    return q;
  }
  if (toks[0] == "bc") {
    if (toks.size() > 2) return fail("expected 'bc [SAMPLES]'");
    q.type = QueryType::kBetweenness;
    if (toks.size() == 2) {
      const auto s = parse_uint(toks[1]);
      if (!s) return fail("bc sample count must be a non-negative integer");
      q.samples = *s;
    }
    return q;
  }
  // The pair families, by their query_type_name.
  const QueryType pair_types[] = {QueryType::kDist, QueryType::kNextHop,
                                  QueryType::kPath, QueryType::kKPaths,
                                  QueryType::kRoute};
  const auto* family = std::find_if(
      std::begin(pair_types), std::end(pair_types),
      [&](QueryType x) { return toks[0] == query_type_name(x); });
  if (family == std::end(pair_types)) {
    return fail("unknown query type '" + std::string(toks[0]) +
                "' (dist|next|path|kpath|route|report|bc)");
  }
  q.type = *family;
  if (toks.size() < 3) {
    return fail("expected '" + std::string(toks[0]) + " U V ...'");
  }
  const auto u = parse_uint(toks[1]);
  const auto v = parse_uint(toks[2]);
  if (!u || !v) return fail("node ids must be non-negative integers");
  q.u = *u;
  q.v = *v;
  if (q.type == QueryType::kKPaths) {
    if (toks.size() != 4) return fail("expected 'kpath U V K'");
    const auto k = parse_uint(toks[3]);
    if (!k || *k == 0) return fail("k must be a positive integer");
    q.k = *k;
    return q;
  }
  if (q.type == QueryType::kRoute) {
    for (std::size_t i = 3; i < toks.size(); ++i) {
      const std::string_view t = toks[i];
      if (t.rfind("hops=", 0) == 0) {
        const auto h = parse_uint(t.substr(5));
        if (!h) return fail("hops= must be a non-negative integer");
        q.constraints.max_hops = *h;
      } else if (t.rfind("avoidedge=", 0) == 0) {
        if (!parse_edge_list(t.substr(10), &q.constraints.avoid_edges)) {
          return fail("avoidedge= must be a-b pairs separated by commas");
        }
      } else if (t.rfind("avoid=", 0) == 0) {
        if (!parse_node_list(t.substr(6), &q.constraints.avoid_nodes)) {
          return fail("avoid= must be node ids separated by commas");
        }
      } else {
        return fail("unknown route option '" + std::string(t) +
                    "' (hops=|avoid=|avoidedge=)");
      }
    }
    return q;
  }
  if (toks.size() != 3) {
    return fail("expected '" + std::string(toks[0]) + " U V'");
  }
  return q;
}

void write_result_text(const QueryResult& r, std::ostream& out) {
  if (!r.ok) {
    out << "error: " << r.error << "\n";
    return;
  }
  // Whole-graph families do not carry a (u, v) pair or a dist.
  if (r.type == QueryType::kReport) {
    const auto& g = r.report;
    out << "report = radius " << g.radius << ", diameter " << g.diameter
        << ", reachable_pairs " << g.reachable_pairs << ", sources "
        << g.per_source.size() << "\n";
    return;
  }
  if (r.type == QueryType::kBetweenness) {
    // Top scores only; the full vector is available via the JSON protocol.
    std::vector<std::size_t> order(r.centrality.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (r.centrality[a] != r.centrality[b]) {
        return r.centrality[a] > r.centrality[b];
      }
      return a < b;
    });
    out << "bc = " << r.centrality.size() << " nodes, top:";
    const std::size_t top = std::min<std::size_t>(8, order.size());
    for (std::size_t i = 0; i < top; ++i) {
      out << " " << order[i] << "=" << std::setprecision(6)
          << r.centrality[order[i]];
    }
    out << "\n";
    return;
  }
  out << query_type_name(r.type) << " " << r.u << " " << r.v << " = ";
  if (r.type == QueryType::kKPaths) {
    if (r.routes.empty()) {
      out << "unreachable\n";
      return;
    }
    out << r.routes.size() << " paths\n";
    for (std::size_t i = 0; i < r.routes.size(); ++i) {
      out << "  [" << (i + 1) << "] ";
      write_route_text(r.routes[i], out);
      out << "\n";
    }
    return;
  }
  if (r.type == QueryType::kRoute) {
    if (!r.feasible) {
      out << "infeasible\n";
      return;
    }
    write_route_text(r.routes.front(), out);
    out << "\n";
    return;
  }
  if (r.dist == kInfDist) {
    out << "unreachable\n";
    return;
  }
  switch (r.type) {
    case QueryType::kDist:
      out << r.dist;
      break;
    case QueryType::kNextHop:
      out << (r.next_hop == kNoNode ? std::string("-")
                                    : std::to_string(r.next_hop))
          << " (dist " << r.dist << ")";
      break;
    case QueryType::kPath:
      write_route_text({r.dist, r.path}, out);
      break;
    default:
      break;
  }
  out << "\n";
}

void write_result_json(const QueryResult& r, std::ostream& out) {
  out << "{\"type\":\"" << query_type_name(r.type) << "\",\"u\":" << r.u
      << ",\"v\":" << r.v << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    // r.error embeds caller-controlled text (e.g. the unknown query token);
    // escape it or a quote in the input corrupts the JSONL stream.
    out << ",\"error\":";
    obs::write_json_string(out, r.error);
    out << "}\n";
    return;
  }
  if (r.type == QueryType::kReport) {
    const auto& g = r.report;
    out << ",\"radius\":" << g.radius << ",\"diameter\":" << g.diameter
        << ",\"reachable_pairs\":" << g.reachable_pairs << ",\"sources\":[";
    for (std::size_t i = 0; i < g.per_source.size(); ++i) {
      const auto& s = g.per_source[i];
      out << (i ? "," : "") << "{\"ecc\":" << s.eccentricity
          << ",\"farness\":" << s.farness << ",\"reached\":" << s.reached
          << "}";
    }
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kBetweenness) {
    out << ",\"centrality\":[" << std::setprecision(17);
    put_list(out, r.centrality, ",");
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kKPaths) {
    out << ",\"routes\":[";
    for (std::size_t i = 0; i < r.routes.size(); ++i) {
      const auto& rt = r.routes[i];
      out << (i ? "," : "") << "{\"dist\":" << rt.weight << ",\"path\":[";
      put_list(out, rt.nodes, ",");
      out << "]}";
    }
    out << "]}\n";
    return;
  }
  if (r.type == QueryType::kRoute) {
    out << ",\"feasible\":" << (r.feasible ? "true" : "false");
    if (r.feasible) {
      out << ",\"dist\":" << r.dist << ",\"path\":[";
      put_list(out, r.path, ",");
      out << "]";
    }
    out << "}\n";
    return;
  }
  out << ",\"dist\":";
  if (r.dist == kInfDist) {
    out << "null";
  } else {
    out << r.dist;
  }
  if (r.type == QueryType::kNextHop && r.next_hop != kNoNode) {
    out << ",\"next\":" << r.next_hop;
  }
  if (r.type == QueryType::kPath && r.dist != kInfDist) {
    out << ",\"path\":[";
    put_list(out, r.path, ",");
    out << "]";
  }
  out << "}\n";
}

}  // namespace dapsp::serve
