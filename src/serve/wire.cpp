#include "serve/wire.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "serve/session_loop.hpp"

namespace dapsp::serve::wire {

namespace {

constexpr char kMagic0 = 'D';
constexpr char kReqMagic1 = 'Q';
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

/// Appends `v` as sizeof(T) little-endian bytes.
template <class T>
void put(std::string& buf, T v) {
  const auto x = static_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
  }
}
void put_u16(std::string& buf, std::uint16_t v) { put(buf, v); }
void put_u32(std::string& buf, std::uint32_t v) { put(buf, v); }
void put_u64(std::string& buf, std::uint64_t v) { put(buf, v); }
void put_i64(std::string& buf, std::int64_t v) { put(buf, v); }

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
  /// sizeof(T) little-endian bytes; 0 past the end.
  template <class T>
  T get() {
    if (!need(sizeof(T))) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) v = v << 8 | p[pos + i];
    pos += sizeof(T);
    return static_cast<T>(v);
  }
  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
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

/// Starts a frame at the end of `buf`: a length prefix that end_frame
/// fills in, then the header 'D' `magic1` version opcode.  Returns the
/// prefix's offset.
std::size_t begin_frame(std::string& buf, char magic1, std::uint8_t opcode) {
  const std::size_t at = buf.size();
  put_u32(buf, 0);
  buf.push_back(kMagic0);
  buf.push_back(magic1);
  buf.push_back(static_cast<char>(kVersion));
  buf.push_back(static_cast<char>(opcode));
  return at;
}

void end_frame(std::string& buf, std::size_t at) {
  std::string len;
  put_u32(len, static_cast<std::uint32_t>(buf.size() - at - 4));
  buf.replace(at, 4, len);
}

/// A response frame with its header written; FrameCodec::send ends it.
std::string begin_response(std::uint8_t opcode) {
  std::string p;
  begin_frame(p, kRespMagic1, opcode);
  return p;
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

void append_result(std::string& p, const service::QueryResult& r) {
  p.push_back(static_cast<char>(r.type));
  put_status(p, r);
  if (!r.ok) return;
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

/// The binary protocol: one frame per request, one frame per answer.
class FrameCodec {
 public:
  FrameCodec(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  bool read(Request& req) {
    req = Request{};
    std::string lenbuf(4, '\0');
    in_.read(lenbuf.data(), 4);
    if (in_.gcount() == 0) return false;  // clean EOF at a frame boundary
    if (in_.gcount() != 4) {
      req.reject(ErrorCode::kTruncated, "stream ended inside a length prefix",
                 true);
      return true;
    }
    const std::uint32_t len = Reader(lenbuf).u32();
    if (len > kMaxFrameBytes) {
      // The declared payload may not even exist; resync is impossible.
      req.reject(ErrorCode::kFrameTooLarge,
                 "frame of " + std::to_string(len) + " bytes exceeds limit of " +
                     std::to_string(kMaxFrameBytes),
                 true);
    } else if (!read_exact(in_, payload_, len)) {
      req.reject(ErrorCode::kTruncated, "stream ended inside a frame payload",
                 true);
    } else {
      decode(req);
    }
    return true;
  }

  void read_batch(Request& req, bool keep) {
    if (!keep) return;  // the body is in the frame, already consumed
    const std::size_t have = payload_.size() - body_;
    const std::uint64_t want = req.count * kQueryWireBytes;
    if (have != want) {
      return req.reject(
          have < want ? ErrorCode::kTruncated : ErrorCode::kBadBody,
          "batch body holds " + std::to_string(have / kQueryWireBytes) +
              " queries but declares " + std::to_string(req.count));
    }
    Reader r(payload_);
    r.pos = body_;
    req.queries.reserve(static_cast<std::size_t>(req.count));
    for (std::uint64_t i = 0; i < req.count; ++i) {
      const std::uint8_t t = r.u8();
      service::Query q;
      q.u = r.u32();
      q.v = r.u32();
      if (t >= service::kPointQueryTypeCount) {
        // Analytics types have dedicated opcodes: their bodies are not the
        // fixed-size records a batch frame is made of.  The whole batch is
        // rejected: partial answers would desynchronize the caller's
        // results[i] <-> queries[i] pairing.
        return req.reject(ErrorCode::kBadQueryType,
                          "batch contains a query type outside dist/next/path "
                          "(analytics use dedicated opcodes)");
      }
      q.type = static_cast<service::QueryType>(t);
      req.queries.push_back(q);
    }
  }

  std::string too_large(std::uint64_t count, std::size_t max_batch) const {
    return "batch of " + std::to_string(count) +
           " queries exceeds max_batch=" + std::to_string(max_batch);
  }

  void error(ErrorCode code, const std::string& msg) {
    std::string p = begin_response(kOpError);
    put_u16(p, static_cast<std::uint16_t>(code));
    put_u32(p, static_cast<std::uint32_t>(msg.size()));
    p.append(msg);
    send(p);
  }

  void stats(const service::ServiceStats& st) {
    std::ostringstream json;
    obs::JsonWriter w(json);
    st.write_json(w);
    const std::string doc = json.str();
    std::string p = begin_response(kOpStatsResp);
    put_u32(p, static_cast<std::uint32_t>(doc.size()));
    p.append(doc);
    send(p);
  }

  void rebuilt(const RebuildOutcome& rb) {
    if (!rb.ok) return error(ErrorCode::kRebuildFailed,
                             "rebuild failed: " + rb.error);
    std::string p = begin_response(kOpRebuildResp);
    put_u64(p, rb.epoch);
    put_u64(p, rb.build_ns);
    send(p);
  }

  /// An analytics answer; its opcode is the request's with the high bit set.
  void answer(const service::QueryResult& qr) {
    std::string p = begin_response(static_cast<std::uint8_t>(op_ | 0x80));
    put_status(p, qr);
    if (qr.ok && qr.type == service::QueryType::kKPaths) {
      put_u32(p, static_cast<std::uint32_t>(qr.routes.size()));
      for (const query::Route& rt : qr.routes) put_route(p, rt);
    } else if (qr.ok && qr.type == service::QueryType::kRoute) {
      p.push_back(qr.feasible ? '\1' : '\0');
      if (qr.feasible) put_route(p, qr.routes.front());
    } else if (qr.ok && qr.type == service::QueryType::kReport) {
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
    } else if (qr.ok && qr.type == service::QueryType::kBetweenness) {
      put_u32(p, static_cast<std::uint32_t>(qr.centrality.size()));
      for (const double d : qr.centrality) {
        put_u64(p, std::bit_cast<std::uint64_t>(d));
      }
    }
    send(p);
  }

  void answer_batch(const std::vector<service::QueryResult>& results,
                    const std::vector<std::pair<std::size_t, std::string>>&) {
    std::string p = begin_response(kOpBatchResp);
    put_u32(p, static_cast<std::uint32_t>(results.size()));
    for (const service::QueryResult& qr : results) append_result(p, qr);
    send(p);
  }

 private:
  void send(std::string& frame) {
    end_frame(frame, 0);
    out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out_.flush();
  }

  /// Decodes the frame in payload_.  Every error here is recoverable: the
  /// frame is consumed whole, so the session goes on after the answer.
  void decode(Request& req) {
    Reader r(payload_);
    const char m0 = static_cast<char>(r.u8());
    const char m1 = static_cast<char>(r.u8());
    if (!r.ok || m0 != kMagic0 || m1 != kReqMagic1) {
      return req.reject(ErrorCode::kBadMagic,
                        "request does not start with 'DQ'");
    }
    const std::uint8_t ver = r.u8();
    if (!r.ok || ver != kVersion) {
      return req.reject(ErrorCode::kBadVersion,
                        "unsupported protocol version " + std::to_string(ver));
    }
    op_ = r.u8();
    if (!r.ok) {
      return req.reject(ErrorCode::kTruncated,
                        "request header shorter than 4 bytes");
    }
    const auto empty_body = [&](const char* name) {
      if (r.pos == payload_.size()) return true;
      req.reject(ErrorCode::kBadBody, std::string(name) + " body must be empty");
      return false;
    };
    // A fixed-size body: shorter is truncated, longer is bad_body.
    const auto fixed_body = [&](const char* name, const char* size) {
      if (r.ok && r.pos == payload_.size()) return true;
      if (!r.ok) {
        req.reject(ErrorCode::kTruncated,
                   std::string(name) + " body shorter than " + size);
      } else {
        req.reject(ErrorCode::kBadBody,
                   std::string(name) + " body has trailing bytes");
      }
      return false;
    };
    service::Query q;
    switch (op_) {
      case kOpQuit:
        if (empty_body("quit")) req.kind = Request::Kind::kQuit;
        return;
      case kOpStats:
        if (empty_body("stats")) req.kind = Request::Kind::kStats;
        return;
      case kOpRebuild:
        if (empty_body("rebuild")) req.kind = Request::Kind::kRebuild;
        return;
      case kOpBatch:
        req.count = r.u32();
        if (!r.ok) {
          return req.reject(ErrorCode::kTruncated,
                            "batch frame missing its count");
        }
        req.kind = Request::Kind::kBatch;
        body_ = r.pos;
        return;
      case kOpKPath:
        q.type = service::QueryType::kKPaths;
        q.u = r.u32();
        q.v = r.u32();
        q.k = r.u32();
        if (!fixed_body("kpath", "12 bytes")) return;
        if (q.k == 0) {
          return req.reject(ErrorCode::kBadK, "kpath k must be >= 1");
        }
        break;
      case kOpRoute: {
        q.type = service::QueryType::kRoute;
        q.u = r.u32();
        q.v = r.u32();
        q.constraints.max_hops = r.u32();
        const std::uint32_t n_nodes = r.u32();
        const std::uint32_t n_edges = r.u32();
        if (!r.ok) {
          return req.reject(ErrorCode::kTruncated,
                            "route header shorter than 20 bytes");
        }
        // Bound the avoid sets before trusting the declared counts with any
        // allocation: a hostile count must cost nothing.
        if (n_nodes > service::kMaxAvoid || n_edges > service::kMaxAvoid) {
          return req.reject(ErrorCode::kBadAvoidSet,
                            "route avoid set exceeds max_avoid=" +
                                std::to_string(service::kMaxAvoid));
        }
        const std::size_t want = static_cast<std::size_t>(n_nodes) * 4 +
                                 static_cast<std::size_t>(n_edges) * 8;
        const std::size_t have = payload_.size() - r.pos;
        if (have < want) {
          return req.reject(ErrorCode::kTruncated,
                            "route avoid sets truncated (" +
                                std::to_string(have) + " bytes, need " +
                                std::to_string(want) + ")");
        }
        if (have > want) {
          return req.reject(ErrorCode::kBadBody,
                            "route body has trailing bytes");
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
        break;
      }
      case kOpReport:
        if (!empty_body("report")) return;
        q.type = service::QueryType::kReport;
        break;
      case kOpBc:
        q.type = service::QueryType::kBetweenness;
        q.samples = r.u32();
        if (!fixed_body("bc", "4 bytes")) return;
        break;
      default:
        return req.reject(ErrorCode::kBadOpcode,
                          "unknown request opcode " + std::to_string(op_));
    }
    req.kind = Request::Kind::kQuery;
    req.queries.push_back(std::move(q));
  }

  std::istream& in_;
  std::ostream& out_;
  std::string payload_;    ///< the current frame's payload
  std::uint8_t op_ = 0;    ///< the current frame's opcode
  std::size_t body_ = 0;   ///< kBatch: offset of the entries in payload_
};

}  // namespace

void append_batch_request(std::string& buf,
                          std::span<const service::Query> queries) {
  const std::size_t at = begin_frame(buf, kReqMagic1, kOpBatch);
  put_u32(buf, static_cast<std::uint32_t>(queries.size()));
  for (const service::Query& q : queries) {
    buf.push_back(static_cast<char>(q.type));
    put_u32(buf, q.u);
    put_u32(buf, q.v);
  }
  end_frame(buf, at);
}

void append_stats_request(std::string& buf) {
  end_frame(buf, begin_frame(buf, kReqMagic1, kOpStats));
}

void append_quit_request(std::string& buf) {
  end_frame(buf, begin_frame(buf, kReqMagic1, kOpQuit));
}

void append_rebuild_request(std::string& buf) {
  end_frame(buf, begin_frame(buf, kReqMagic1, kOpRebuild));
}

void append_kpath_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          std::uint32_t k) {
  const std::size_t at = begin_frame(buf, kReqMagic1, kOpKPath);
  put_u32(buf, u);
  put_u32(buf, v);
  put_u32(buf, k);
  end_frame(buf, at);
}

void append_route_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          const query::RouteConstraints& c) {
  const std::size_t at = begin_frame(buf, kReqMagic1, kOpRoute);
  put_u32(buf, u);
  put_u32(buf, v);
  put_u32(buf, c.max_hops);
  put_u32(buf, static_cast<std::uint32_t>(c.avoid_nodes.size()));
  put_u32(buf, static_cast<std::uint32_t>(c.avoid_edges.size()));
  for (const graph::NodeId x : c.avoid_nodes) put_u32(buf, x);
  for (const auto& [a, b] : c.avoid_edges) {
    put_u32(buf, a);
    put_u32(buf, b);
  }
  end_frame(buf, at);
}

void append_report_request(std::string& buf) {
  end_frame(buf, begin_frame(buf, kReqMagic1, kOpReport));
}

void append_bc_request(std::string& buf, std::uint32_t samples) {
  const std::size_t at = begin_frame(buf, kReqMagic1, kOpBc);
  put_u32(buf, samples);
  end_frame(buf, at);
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
  if (!r.ok || m0 != kMagic0 || m1 != kRespMagic1 || ver != kVersion) {
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
        if (read_status(r, &qr)) {
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
                 std::ostream& out, const SessionOptions& opts) {
  FrameCodec io(in, out);
  return run_session(svc, io, opts);
}

}  // namespace dapsp::serve::wire
