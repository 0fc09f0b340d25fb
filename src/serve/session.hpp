// One session over a QueryService, in any of the three serve protocols.
//
// A session reads requests from a stream until EOF or quit and answers each
// on another stream.  The text protocol is a line per request ("dist 0 5",
// "batch 3", "stats", ...) answered as text or as JSONL; the binary
// protocol is a length-prefixed frame per request (serve/wire.hpp).  All
// three run through one loop, which alone handles quit, stats, rebuild, the
// max_batch reject-whole rule and the protocol-error count the CLI turns
// into its exit code; per-format code only decodes one request and renders
// one answer.  Every format reports its protocol errors from one ErrorCode
// table.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "service/query_service.hpp"

namespace dapsp::serve {

/// Protocol errors of every format.  The values are the binary protocol's
/// u16 error codes (1-10 since version 1); text and JSONL report the name.
enum class ErrorCode : std::uint16_t {
  kBadMagic = 1,
  kBadVersion,
  kBadOpcode,
  kTruncated,
  kFrameTooLarge,
  kBatchTooLarge,
  kBadQueryType,
  kBadK,
  kBadAvoidSet,
  kBadBody,
  kParseError,
  kBatchTruncated,
  kRebuildUnavailable,
  kRebuildFailed,
};

/// Name and meaning of each ErrorCode, indexed by value - 1.  The error
/// table of docs/SERVICE.md is rendered from it (transcript_test holds the
/// two equal).
inline constexpr std::array<std::array<const char*, 2>, 14> kErrorCodes = {{
    {"bad_magic", "the payload does not start with 'D','Q'"},
    {"bad_version", "unknown protocol version"},
    {"bad_opcode", "unknown request opcode"},
    {"truncated", "the stream or a body ends before its fields or counts"},
    {"frame_too_large", "a length prefix above 64 MiB"},
    {"batch_too_large", "a batch declares more than max_batch entries"},
    {"bad_query_type", "a BATCH entry that is not dist, next or path"},
    {"bad_k", "KPATH with k = 0"},
    {"bad_avoid_set", "a ROUTE avoid set above 4096 entries"},
    {"bad_body", "a body longer than its fields or counts"},
    {"parse_error", "a line that is not a query or directive"},
    {"batch_truncated", "the input ends inside a batch body"},
    {"rebuild_unavailable", "rebuild on a session without a rebuild hook"},
    {"rebuild_failed", "the rebuild hook failed (not counted as an error)"},
}};

inline const char* error_code_name(ErrorCode c) {
  return kErrorCodes[static_cast<std::size_t>(c) - 1][0];
}

/// What a session's rebuild hook reports: the newly published epoch and
/// the build's duration, or why the build failed.
struct RebuildOutcome {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t build_ns = 0;
  std::string error;

  friend bool operator==(const RebuildOutcome&,
                         const RebuildOutcome&) = default;
};

/// The protocol a session's streams speak.
enum class Format { kText, kJson, kBinary };

struct SessionOptions {
  /// Largest batch accepted ("batch N" or a BATCH frame); a larger one is
  /// rejected whole with batch_too_large, never served partially.
  std::size_t max_batch = 1 << 16;
  /// Runs the "rebuild" directive; without it rebuild answers
  /// rebuild_unavailable.
  std::function<RebuildOutcome()> on_rebuild;
};

/// Answers requests from `in` on `out` until EOF or quit.  Text and JSONL
/// skip blank lines and '#' comments; "stats" answers a counters snapshot,
/// "batch N" runs the next N query lines as one query_batch, "rebuild"
/// runs opts.on_rebuild, "quit" or "exit" ends the session.  Returns the
/// number of protocol errors answered (failed rebuilds excluded).
int serve_session(const service::QueryService& svc, std::istream& in,
                  std::ostream& out, Format format,
                  const SessionOptions& opts = {});

/// Parses one text query line:
///   "dist U V" | "next U V" | "path U V"
///   "kpath U V K"
///   "route U V [hops=H] [avoid=a,b,...] [avoidedge=a-b,c-d,...]"
///   "report"
///   "bc [SAMPLES]"
/// Returns nullopt and fills *error on malformed input.  The service
/// enforces its limits (k, avoid sets, hops) when it executes the query.
std::optional<service::Query> parse_query(std::string_view line,
                                          std::string* error);

void write_result_text(const service::QueryResult& r, std::ostream& out);
/// One JSON object per result (JSONL); kInfDist renders as null.
void write_result_json(const service::QueryResult& r, std::ostream& out);

}  // namespace dapsp::serve
