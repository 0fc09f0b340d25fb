#include "serve/wire.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace dapsp::serve::wire {

namespace {

constexpr char kReqMagic0 = 'D';
constexpr char kReqMagic1 = 'Q';
constexpr char kRespMagic0 = 'D';
constexpr char kRespMagic1 = 'R';
constexpr std::uint8_t kVersion = 1;

constexpr std::uint8_t kOpBatch = 0x01;
constexpr std::uint8_t kOpStats = 0x02;
constexpr std::uint8_t kOpQuit = 0x03;
constexpr std::uint8_t kOpRebuild = 0x04;
constexpr std::uint8_t kOpKPath = 0x05;
constexpr std::uint8_t kOpRoute = 0x06;
constexpr std::uint8_t kOpReport = 0x07;
constexpr std::uint8_t kOpBc = 0x08;
constexpr std::uint8_t kOpBatchResp = 0x81;
constexpr std::uint8_t kOpStatsResp = 0x82;
constexpr std::uint8_t kOpRebuildResp = 0x83;
constexpr std::uint8_t kOpKPathResp = 0x85;
constexpr std::uint8_t kOpRouteResp = 0x86;
constexpr std::uint8_t kOpReportResp = 0x87;
constexpr std::uint8_t kOpBcResp = 0x88;
constexpr std::uint8_t kOpError = 0xEE;

// Per-query wire size inside a batch request: qtype + u + v.
constexpr std::size_t kQueryWireBytes = 1 + 4 + 4;

// --- little-endian primitives ---------------------------------------------

void put_u16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v & 0xFF));
  buf.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_i64(std::string& buf, std::int64_t v) {
  put_u64(buf, static_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over one frame payload.  `ok` latches false on the
/// first short read so callers can decode optimistically and test once.
struct Reader {
  const unsigned char* p;
  std::size_t len;
  std::size_t pos = 0;
  bool ok = true;

  explicit Reader(std::string_view payload)
      : p(reinterpret_cast<const unsigned char*>(payload.data())),
        len(payload.size()) {}

  bool need(std::size_t n) {
    if (!ok || len - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(p[pos]) |
                      static_cast<std::uint16_t>(p[pos + 1]) << 8;
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = v << 8 | p[pos + static_cast<std::size_t>(i)];
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 | p[pos + static_cast<std::size_t>(i)];
    }
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// A u32 count of elements of at least `bytes_each` bytes; 0 and !ok when
  /// the rest of the payload cannot hold them, before anyone reserves them.
  std::uint32_t count(std::size_t bytes_each) {
    const std::uint32_t n = u32();
    if (!ok || n > (len - pos) / bytes_each) {
      ok = false;
      return 0;
    }
    return n;
  }
  std::string bytes(std::size_t n) {
    if (!need(n)) return {};
    std::string out(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return out;
  }
};

void frame_and_write(std::ostream& out, const std::string& payload) {
  std::string prefix;
  put_u32(prefix, static_cast<std::uint32_t>(payload.size()));
  out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
}

void begin_request(std::string& buf, std::uint8_t opcode) {
  buf.push_back(kReqMagic0);
  buf.push_back(kReqMagic1);
  buf.push_back(static_cast<char>(kVersion));
  buf.push_back(static_cast<char>(opcode));
}

void begin_response(std::string& buf, std::uint8_t opcode) {
  buf.push_back(kRespMagic0);
  buf.push_back(kRespMagic1);
  buf.push_back(static_cast<char>(kVersion));
  buf.push_back(static_cast<char>(opcode));
}

/// status(err) for an analytics response: the query reached the service and
/// failed there (bad ids, analytics unavailable, ...) -- in-band, not a
/// protocol ERROR frame.
void put_status(std::string& p, const service::QueryResult& r) {
  if (r.ok) {
    p.push_back('\1');
    return;
  }
  p.push_back('\0');
  put_u32(p, static_cast<std::uint32_t>(r.error.size()));
  p.append(r.error);
}

void put_route(std::string& p, const query::Route& rt) {
  put_i64(p, rt.weight);
  put_u32(p, static_cast<std::uint32_t>(rt.nodes.size()));
  for (const graph::NodeId x : rt.nodes) put_u32(p, x);
}

query::Route read_route(Reader& r) {
  query::Route rt;
  rt.weight = r.i64();
  const std::uint32_t len = r.count(4);
  rt.nodes.reserve(len);
  for (std::uint32_t i = 0; r.ok && i < len; ++i) rt.nodes.push_back(r.u32());
  return rt;
}

/// Decodes the leading status byte of an analytics response body into
/// `out->ok` / `out->error`; returns out->ok.
bool read_status(Reader& r, service::QueryResult* out) {
  out->ok = r.u8() != 0;
  if (!out->ok) {
    const std::uint32_t mlen = r.u32();
    out->error = r.bytes(mlen);
  }
  return out->ok;
}

std::string make_error_payload(ErrorCode code, std::string_view msg) {
  std::string p;
  p.push_back(kRespMagic0);
  p.push_back(kRespMagic1);
  p.push_back(static_cast<char>(kVersion));
  p.push_back(static_cast<char>(kOpError));
  put_u16(p, static_cast<std::uint16_t>(code));
  put_u32(p, static_cast<std::uint32_t>(msg.size()));
  p.append(msg);
  return p;
}

void append_result(std::string& p, const service::QueryResult& r) {
  p.push_back(static_cast<char>(r.type));
  if (!r.ok) {
    p.push_back('\0');
    put_u32(p, static_cast<std::uint32_t>(r.error.size()));
    p.append(r.error);
    return;
  }
  p.push_back('\1');
  put_i64(p, r.dist);
  put_u32(p, r.next_hop);
  put_u32(p, static_cast<std::uint32_t>(r.path.size()));
  for (const graph::NodeId v : r.path) put_u32(p, v);
}

/// Reads exactly `want` payload bytes after a complete length prefix.
/// Returns false on EOF mid-payload (unrecoverable truncation).
bool read_exact(std::istream& in, std::string& buf, std::size_t want) {
  buf.resize(want);
  in.read(buf.data(), static_cast<std::streamsize>(want));
  return static_cast<std::size_t>(in.gcount()) == want;
}

}  // namespace

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kBadOpcode: return "bad_opcode";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kFrameTooLarge: return "frame_too_large";
    case ErrorCode::kBatchTooLarge: return "batch_too_large";
    case ErrorCode::kBadQueryType: return "bad_query_type";
    case ErrorCode::kBadK: return "bad_k";
    case ErrorCode::kBadAvoidSet: return "bad_avoid_set";
    case ErrorCode::kBadBody: return "bad_body";
  }
  return "?";
}

void append_batch_request(std::string& buf,
                          std::span<const service::Query> queries) {
  std::string p;
  begin_request(p, kOpBatch);
  put_u32(p, static_cast<std::uint32_t>(queries.size()));
  for (const service::Query& q : queries) {
    p.push_back(static_cast<char>(q.type));
    put_u32(p, q.u);
    put_u32(p, q.v);
  }
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_stats_request(std::string& buf) {
  std::string p;
  begin_request(p, kOpStats);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_quit_request(std::string& buf) {
  std::string p;
  begin_request(p, kOpQuit);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_rebuild_request(std::string& buf) {
  std::string p;
  begin_request(p, kOpRebuild);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_kpath_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          std::uint32_t k) {
  std::string p;
  begin_request(p, kOpKPath);
  put_u32(p, u);
  put_u32(p, v);
  put_u32(p, k);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_route_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          const query::RouteConstraints& c) {
  std::string p;
  begin_request(p, kOpRoute);
  put_u32(p, u);
  put_u32(p, v);
  put_u32(p, c.max_hops);
  put_u32(p, static_cast<std::uint32_t>(c.avoid_nodes.size()));
  put_u32(p, static_cast<std::uint32_t>(c.avoid_edges.size()));
  for (const graph::NodeId x : c.avoid_nodes) put_u32(p, x);
  for (const auto& [a, b] : c.avoid_edges) {
    put_u32(p, a);
    put_u32(p, b);
  }
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_report_request(std::string& buf) {
  std::string p;
  begin_request(p, kOpReport);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

void append_bc_request(std::string& buf, std::uint32_t samples) {
  std::string p;
  begin_request(p, kOpBc);
  put_u32(p, samples);
  put_u32(buf, static_cast<std::uint32_t>(p.size()));
  buf.append(p);
}

std::optional<Response> read_response(std::istream& in) {
  std::string lenbuf(4, '\0');
  in.read(lenbuf.data(), 4);
  if (in.gcount() == 0) return std::nullopt;  // clean EOF between frames
  if (in.gcount() != 4) throw std::runtime_error("wire: truncated length");
  Reader lr(lenbuf);
  const std::uint32_t len = lr.u32();
  if (len > kMaxFrameBytes) throw std::runtime_error("wire: response too big");
  std::string payload;
  if (!read_exact(in, payload, len)) {
    throw std::runtime_error("wire: truncated response payload");
  }
  Reader r(payload);
  const char m0 = static_cast<char>(r.u8());
  const char m1 = static_cast<char>(r.u8());
  const std::uint8_t ver = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok || m0 != kRespMagic0 || m1 != kRespMagic1 || ver != kVersion) {
    throw std::runtime_error("wire: bad response header");
  }
  Response resp;
  switch (op) {
    case kOpBatchResp: {
      resp.kind = Response::Kind::kBatch;
      const std::uint32_t count = r.count(6);  // type, status, error length
      resp.results.reserve(count);
      for (std::uint32_t i = 0; r.ok && i < count; ++i) {
        service::QueryResult qr;
        qr.type = static_cast<service::QueryType>(r.u8());
        const std::uint8_t ok = r.u8();
        if (ok == 0) {
          const std::uint32_t mlen = r.u32();
          qr.error = r.bytes(mlen);
          qr.ok = false;
        } else {
          qr.ok = true;
          qr.dist = r.i64();
          qr.next_hop = r.u32();
          const std::uint32_t plen = r.count(4);
          qr.path.reserve(plen);
          for (std::uint32_t j = 0; r.ok && j < plen; ++j) {
            qr.path.push_back(r.u32());
          }
        }
        resp.results.push_back(std::move(qr));
      }
      break;
    }
    case kOpStatsResp: {
      resp.kind = Response::Kind::kStats;
      const std::uint32_t jlen = r.u32();
      resp.stats_json = r.bytes(jlen);
      break;
    }
    case kOpRebuildResp: {
      resp.kind = Response::Kind::kRebuild;
      resp.epoch = r.u64();
      resp.build_ns = r.u64();
      break;
    }
    case kOpKPathResp: {
      resp.kind = Response::Kind::kKPath;
      resp.result.type = service::QueryType::kKPaths;
      if (!read_status(r, &resp.result)) break;
      const std::uint32_t n = r.count(12);  // weight, node count
      resp.result.routes.reserve(n);
      for (std::uint32_t i = 0; r.ok && i < n; ++i) {
        resp.result.routes.push_back(read_route(r));
      }
      if (!resp.result.routes.empty()) {
        resp.result.dist = resp.result.routes.front().weight;
      }
      break;
    }
    case kOpRouteResp: {
      resp.kind = Response::Kind::kRoute;
      resp.result.type = service::QueryType::kRoute;
      if (!read_status(r, &resp.result)) break;
      resp.result.feasible = r.u8() != 0;
      if (resp.result.feasible) {
        query::Route rt = read_route(r);
        resp.result.dist = rt.weight;
        resp.result.path = rt.nodes;
        resp.result.routes.push_back(std::move(rt));
      }
      break;
    }
    case kOpReportResp: {
      resp.kind = Response::Kind::kReport;
      resp.result.type = service::QueryType::kReport;
      if (!read_status(r, &resp.result)) break;
      auto& g = resp.result.report;
      g.radius = r.i64();
      g.diameter = r.i64();
      g.reachable_pairs = r.u64();
      const std::uint32_t n = r.count(20);
      g.per_source.reserve(n);
      for (std::uint32_t i = 0; r.ok && i < n; ++i) {
        query::SourceReport s;
        s.eccentricity = r.i64();
        s.farness = r.i64();
        s.reached = r.u32();
        g.per_source.push_back(s);
      }
      break;
    }
    case kOpBcResp: {
      resp.kind = Response::Kind::kBc;
      resp.result.type = service::QueryType::kBetweenness;
      if (!read_status(r, &resp.result)) break;
      const std::uint32_t n = r.count(8);
      resp.result.centrality.reserve(n);
      for (std::uint32_t i = 0; r.ok && i < n; ++i) {
        resp.result.centrality.push_back(std::bit_cast<double>(r.u64()));
      }
      break;
    }
    case kOpError: {
      resp.kind = Response::Kind::kError;
      resp.code = static_cast<ErrorCode>(r.u16());
      const std::uint32_t mlen = r.u32();
      resp.message = r.bytes(mlen);
      break;
    }
    default:
      throw std::runtime_error("wire: unknown response opcode");
  }
  if (!r.ok) throw std::runtime_error("wire: short response body");
  return resp;
}

int serve_binary(const service::QueryService& svc, std::istream& in,
                 std::ostream& out, const service::ServeOptions& opts) {
  int errors = 0;
  const auto fail = [&](ErrorCode code, const std::string& msg) {
    ++errors;
    frame_and_write(out, make_error_payload(code, msg));
  };
  for (;;) {
    std::string lenbuf(4, '\0');
    in.read(lenbuf.data(), 4);
    if (in.gcount() == 0) return errors;  // clean EOF at a frame boundary
    if (in.gcount() != 4) {
      fail(ErrorCode::kTruncated, "stream ended inside a length prefix");
      return errors;
    }
    Reader lr(lenbuf);
    const std::uint32_t len = lr.u32();
    if (len > kMaxFrameBytes) {
      // The declared payload may not even exist; resync is impossible.
      fail(ErrorCode::kFrameTooLarge,
           "frame of " + std::to_string(len) + " bytes exceeds limit of " +
               std::to_string(kMaxFrameBytes));
      return errors;
    }
    std::string payload;
    if (!read_exact(in, payload, len)) {
      fail(ErrorCode::kTruncated, "stream ended inside a frame payload");
      return errors;
    }
    // From here every error is recoverable: the bad frame is fully consumed,
    // so answer with an ERROR frame and keep serving.
    Reader r(payload);
    const char m0 = static_cast<char>(r.u8());
    const char m1 = static_cast<char>(r.u8());
    if (!r.ok || m0 != kReqMagic0 || m1 != kReqMagic1) {
      fail(ErrorCode::kBadMagic, "request does not start with 'DQ'");
      continue;
    }
    const std::uint8_t ver = r.u8();
    if (!r.ok || ver != kVersion) {
      fail(ErrorCode::kBadVersion,
           "unsupported protocol version " + std::to_string(ver));
      continue;
    }
    const std::uint8_t op = r.u8();
    if (!r.ok) {
      fail(ErrorCode::kTruncated, "request header shorter than 4 bytes");
      continue;
    }
    switch (op) {
      case kOpQuit:
        return errors;
      case kOpStats: {
        std::ostringstream json;
        obs::JsonWriter w(json);
        svc.stats().write_json(w);
        std::string p;
        p.push_back(kRespMagic0);
        p.push_back(kRespMagic1);
        p.push_back(static_cast<char>(kVersion));
        p.push_back(static_cast<char>(kOpStatsResp));
        const std::string doc = json.str();
        put_u32(p, static_cast<std::uint32_t>(doc.size()));
        p.append(doc);
        frame_and_write(out, p);
        break;
      }
      case kOpRebuild: {
        if (!opts.on_rebuild) {
          fail(ErrorCode::kBadOpcode,
               "rebuild is not available on this session");
          break;
        }
        const service::RebuildOutcome rb = opts.on_rebuild();
        if (!rb.ok) {
          // A failed rebuild is a server-side condition, not a protocol
          // error: report it without counting toward the malformed total.
          frame_and_write(out, make_error_payload(ErrorCode::kBadOpcode,
                                                  "rebuild failed: " +
                                                      rb.error));
          break;
        }
        std::string p;
        p.push_back(kRespMagic0);
        p.push_back(kRespMagic1);
        p.push_back(static_cast<char>(kVersion));
        p.push_back(static_cast<char>(kOpRebuildResp));
        put_u64(p, rb.epoch);
        put_u64(p, rb.build_ns);
        frame_and_write(out, p);
        break;
      }
      case kOpBatch: {
        const std::uint32_t count = r.u32();
        if (!r.ok) {
          fail(ErrorCode::kTruncated, "batch frame missing its count");
          break;
        }
        if (count > svc.config().max_batch) {
          fail(ErrorCode::kBatchTooLarge,
               "batch of " + std::to_string(count) +
                   " queries exceeds max_batch=" +
                   std::to_string(svc.config().max_batch));
          break;
        }
        if (payload.size() - r.pos != count * kQueryWireBytes) {
          fail(ErrorCode::kTruncated,
               "batch body holds " +
                   std::to_string((payload.size() - r.pos) / kQueryWireBytes) +
                   " queries but declares " + std::to_string(count));
          break;
        }
        std::vector<service::Query> queries;
        queries.reserve(count);
        bool bad_type = false;
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t t = r.u8();
          service::Query q;
          q.u = r.u32();
          q.v = r.u32();
          if (t >= service::kPointQueryTypeCount) {
            // Analytics types have dedicated opcodes: their bodies are not
            // the fixed-size records a batch frame is made of.
            bad_type = true;
            break;
          }
          q.type = static_cast<service::QueryType>(t);
          queries.push_back(q);
        }
        if (bad_type) {
          // Reject the whole batch: partial answers would desynchronize the
          // caller's results[i] <-> queries[i] pairing.
          fail(ErrorCode::kBadQueryType,
               "batch contains a query type outside dist/next/path "
               "(analytics use dedicated opcodes)");
          break;
        }
        const std::vector<service::QueryResult> results =
            svc.query_batch(queries);
        std::string p;
        p.push_back(kRespMagic0);
        p.push_back(kRespMagic1);
        p.push_back(static_cast<char>(kVersion));
        p.push_back(static_cast<char>(kOpBatchResp));
        put_u32(p, static_cast<std::uint32_t>(results.size()));
        for (const service::QueryResult& qr : results) append_result(p, qr);
        frame_and_write(out, p);
        break;
      }
      case kOpKPath: {
        service::Query q;
        q.type = service::QueryType::kKPaths;
        q.u = r.u32();
        q.v = r.u32();
        q.k = r.u32();
        if (!r.ok) {
          fail(ErrorCode::kTruncated, "kpath body shorter than 12 bytes");
          break;
        }
        if (r.pos != payload.size()) {
          fail(ErrorCode::kBadBody, "kpath body has trailing bytes");
          break;
        }
        if (q.k == 0) {
          fail(ErrorCode::kBadK, "kpath k must be >= 1");
          break;
        }
        const service::QueryResult qr = svc.query(q);
        std::string p;
        begin_response(p, kOpKPathResp);
        put_status(p, qr);
        if (qr.ok) {
          put_u32(p, static_cast<std::uint32_t>(qr.routes.size()));
          for (const query::Route& rt : qr.routes) put_route(p, rt);
        }
        frame_and_write(out, p);
        break;
      }
      case kOpRoute: {
        service::Query q;
        q.type = service::QueryType::kRoute;
        q.u = r.u32();
        q.v = r.u32();
        q.constraints.max_hops = r.u32();
        const std::uint32_t n_nodes = r.u32();
        const std::uint32_t n_edges = r.u32();
        if (!r.ok) {
          fail(ErrorCode::kTruncated, "route header shorter than 20 bytes");
          break;
        }
        // Bound the avoid sets before trusting the declared counts with any
        // allocation: a hostile count must cost nothing.
        if (n_nodes > svc.config().max_avoid ||
            n_edges > svc.config().max_avoid) {
          fail(ErrorCode::kBadAvoidSet,
               "route avoid set exceeds max_avoid=" +
                   std::to_string(svc.config().max_avoid));
          break;
        }
        const std::size_t want = static_cast<std::size_t>(n_nodes) * 4 +
                                 static_cast<std::size_t>(n_edges) * 8;
        const std::size_t have = payload.size() - r.pos;
        if (have < want) {
          fail(ErrorCode::kTruncated,
               "route avoid sets truncated (" + std::to_string(have) +
                   " bytes, need " + std::to_string(want) + ")");
          break;
        }
        if (have > want) {
          fail(ErrorCode::kBadBody, "route body has trailing bytes");
          break;
        }
        q.constraints.avoid_nodes.reserve(n_nodes);
        for (std::uint32_t i = 0; i < n_nodes; ++i) {
          q.constraints.avoid_nodes.push_back(r.u32());
        }
        q.constraints.avoid_edges.reserve(n_edges);
        for (std::uint32_t i = 0; i < n_edges; ++i) {
          const graph::NodeId a = r.u32();
          const graph::NodeId b = r.u32();
          q.constraints.avoid_edges.emplace_back(a, b);
        }
        const service::QueryResult qr = svc.query(q);
        std::string p;
        begin_response(p, kOpRouteResp);
        put_status(p, qr);
        if (qr.ok) {
          p.push_back(qr.feasible ? '\1' : '\0');
          if (qr.feasible) put_route(p, qr.routes.front());
        }
        frame_and_write(out, p);
        break;
      }
      case kOpReport: {
        if (r.pos != payload.size()) {
          fail(ErrorCode::kBadBody, "report body must be empty");
          break;
        }
        service::Query q;
        q.type = service::QueryType::kReport;
        const service::QueryResult qr = svc.query(q);
        std::string p;
        begin_response(p, kOpReportResp);
        put_status(p, qr);
        if (qr.ok) {
          const query::GraphReport& g = qr.report;
          put_i64(p, g.radius);
          put_i64(p, g.diameter);
          put_u64(p, g.reachable_pairs);
          put_u32(p, static_cast<std::uint32_t>(g.per_source.size()));
          for (const query::SourceReport& s : g.per_source) {
            put_i64(p, s.eccentricity);
            put_i64(p, s.farness);
            put_u32(p, s.reached);
          }
        }
        frame_and_write(out, p);
        break;
      }
      case kOpBc: {
        service::Query q;
        q.type = service::QueryType::kBetweenness;
        q.samples = r.u32();
        if (!r.ok) {
          fail(ErrorCode::kTruncated, "bc body shorter than 4 bytes");
          break;
        }
        if (r.pos != payload.size()) {
          fail(ErrorCode::kBadBody, "bc body has trailing bytes");
          break;
        }
        const service::QueryResult qr = svc.query(q);
        std::string p;
        begin_response(p, kOpBcResp);
        put_status(p, qr);
        if (qr.ok) {
          put_u32(p, static_cast<std::uint32_t>(qr.centrality.size()));
          for (const double d : qr.centrality) {
            put_u64(p, std::bit_cast<std::uint64_t>(d));
          }
        }
        frame_and_write(out, p);
        break;
      }
      default:
        fail(ErrorCode::kBadOpcode,
             "unknown request opcode " + std::to_string(op));
        break;
    }
  }
}

}  // namespace dapsp::serve::wire
