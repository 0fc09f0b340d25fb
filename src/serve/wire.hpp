// Length-prefixed binary query protocol for the distance-oracle service.
//
// The text/JSONL protocol pays per-line tokenizing and decimal formatting on
// every query; the binary protocol ships many (s, t) pairs per frame and
// answers them through QueryService::query_batch (fanned out on the
// service's thread pool), which is what gives batch+binary its throughput
// edge in BENCH_QUERY.json.  Framing:
//
//   frame    := u32le payload_len | payload            (len <= kMaxFrameBytes)
//   request  := 'D' 'Q' u8 version=1 u8 opcode | body
//     0x01 BATCH   body := u32le count | count x { u8 qtype u32le u u32le v }
//     0x02 STATS   body := empty (response carries the stats JSON document)
//     0x03 QUIT    body := empty (ends the session, no response)
//     0x04 REBUILD body := empty (runs the session's rebuild hook)
//     0x05 KPATH   body := u32le u u32le v u32le k              (exactly 12 B)
//     0x06 ROUTE   body := u32le u u32le v u32le max_hops
//                          u32le n_nodes u32le n_edges
//                          | n_nodes x u32le | n_edges x { u32le a u32le b }
//     0x07 REPORT  body := empty
//     0x08 BC      body := u32le samples                        (exactly 4 B)
//   response := 'D' 'R' u8 version=1 u8 opcode | body
//     0x81 BATCH   body := u32le count | count x result
//       result(ok)  := u8 qtype 0x01 i64le dist u32le next
//                      u32le path_len | path_len x u32le
//       result(err) := u8 qtype 0x00 u32le msg_len | msg bytes
//     0x82 STATS   body := u32le json_len | json bytes
//     0x83 REBUILD body := u64le epoch u64le build_ns
//     0x85 KPATH   body := status | u32le n | n x route
//       route      := i64le dist u32le len | len x u32le
//     0x86 ROUTE   body := status | u8 feasible [ route ]
//     0x87 REPORT  body := status | i64le radius i64le diameter
//                          u64le reachable_pairs u32le n
//                          | n x { i64le ecc i64le farness u32le reached }
//     0x88 BC      body := status | u32le n | n x f64le score
//       status(ok)  := u8 0x01   status(err) := u8 0x00 u32le msg_len | msg
//     0xEE ERROR   body := u16le code u32le msg_len | msg bytes
//
// qtype is 0=dist 1=next 2=path; dist/next use the library sentinels
// (kInfDist, kNoNode) verbatim.  BATCH frames carry only those point types
// -- the analytics families have dedicated opcodes because their bodies and
// answers are not fixed-size records.  An answer's opcode is its request's
// with the high bit set; 0xEE marks an ERROR frame.
//
// Malformed input is answered with a structured ERROR frame (codes in
// serve/session.hpp), never best-effort partial output.  A frame whose body
// is shorter than its fields or counts is `truncated`, one that is longer
// is `bad_body`; such frames are consumed whole and serving continues.  A
// truncated length prefix or payload, or a length above kMaxFrameBytes,
// cannot be resynchronized and ends the session after the ERROR frame.  A
// BATCH that declares more than the session's max_batch entries is rejected
// (batch_too_large) before its body is decoded.  Service-level failures
// (bad ids, analytics unavailable) travel in-band as a status(err) inside
// the family's own response frame.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/session.hpp"

namespace dapsp::serve::wire {

inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  ///< 64 MiB

// --- client-side encoding (tests, benches, remote callers) ----------------

void append_batch_request(std::string& buf,
                          std::span<const service::Query> queries);
void append_stats_request(std::string& buf);
void append_quit_request(std::string& buf);
void append_rebuild_request(std::string& buf);
void append_kpath_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          std::uint32_t k);
void append_route_request(std::string& buf, graph::NodeId u, graph::NodeId v,
                          const query::RouteConstraints& c);
void append_report_request(std::string& buf);
void append_bc_request(std::string& buf, std::uint32_t samples);

// --- client-side decoding --------------------------------------------------

/// One parsed response frame.
struct Response {
  enum class Kind { kBatch, kStats, kRebuild, kKPath, kRoute, kReport, kBc,
                    kError };
  Kind kind = Kind::kError;
  std::vector<service::QueryResult> results;  ///< kBatch
  std::string stats_json;                     ///< kStats
  std::uint64_t epoch = 0;                    ///< kRebuild
  std::uint64_t build_ns = 0;                 ///< kRebuild
  /// kKPath/kRoute/kReport/kBc: the decoded analytics answer.  `result.ok`
  /// is false when the server answered with an in-band status(err) (e.g.
  /// analytics unavailable) -- distinct from Kind::kError, which is a
  /// protocol-level ERROR frame.
  service::QueryResult result;
  ErrorCode code = ErrorCode::kBadMagic;      ///< kError
  std::string message;                        ///< kError
};

/// Reads one response frame; nullopt on clean EOF at a frame boundary.
/// Throws std::runtime_error on a corrupt response stream (a server bug,
/// not expected input).
std::optional<Response> read_response(std::istream& in);

// --- server ----------------------------------------------------------------

/// serve_session in Format::kBinary: answers request frames from `in` on
/// `out` until EOF or a QUIT frame; BATCH frames execute through
/// svc.query_batch (one snapshot per frame, results in request order).
/// Returns the number of ERROR frames counted as protocol errors.
int serve_binary(const service::QueryService& svc, std::istream& in,
                 std::ostream& out, const SessionOptions& opts = {});

}  // namespace dapsp::serve::wire
