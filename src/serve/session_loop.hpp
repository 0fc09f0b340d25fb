// The session loop shared by the line codec (serve/session.cpp) and the
// frame codec (serve/wire.cpp).  Private to serve/.
//
// A codec decodes one request (read, then read_batch for a batch body,
// which it only consumes unless told to keep it) and renders one answer
// (error, stats, rebuilt, answer, answer_batch).  The loop is a template
// over the codec: a session's format is fixed, and the two codecs share no
// state or code that a virtual interface would carry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/session.hpp"

namespace dapsp::serve {

/// One decoded request: a text line, a text "batch N" block or a frame.
struct Request {
  enum class Kind { kQuery, kBatch, kStats, kRebuild, kQuit, kError };
  Kind kind = Kind::kError;
  /// kQuery: the query; kBatch: the entries that decoded, in order.
  std::vector<service::Query> queries;
  std::uint64_t count = 0;  ///< kBatch: the entry count it declares
  /// kBatch: entries that failed to parse, by position in the body.
  std::vector<std::pair<std::size_t, std::string>> parse_errors;
  ErrorCode code = ErrorCode::kParseError;  ///< kError
  std::string message;                      ///< kError
  bool ends_session = false;  ///< kError: the stream cannot resynchronize

  void reject(ErrorCode c, std::string msg, bool ends = false) {
    kind = Kind::kError;
    code = c;
    message = std::move(msg);
    ends_session = ends;
  }
};

template <class Codec>
int run_session(const service::QueryService& svc, Codec& io,
                const SessionOptions& opts) {
  int errors = 0;
  const auto fail = [&](ErrorCode code, const std::string& msg) {
    ++errors;
    io.error(code, msg);
  };
  Request req;
  while (io.read(req)) {
    switch (req.kind) {
      case Request::Kind::kQuit:
        return errors;
      case Request::Kind::kError:
        fail(req.code, req.message);
        if (req.ends_session) return errors;
        break;
      case Request::Kind::kStats: {
        service::ServiceStats st = svc.stats();
        st.protocol_errors = static_cast<std::uint64_t>(errors);
        io.stats(st);
        break;
      }
      case Request::Kind::kRebuild:
        if (!opts.on_rebuild) {
          fail(ErrorCode::kRebuildUnavailable,
               "no rebuild hook installed for this session");
        } else {
          // A failed rebuild is a server-side condition, not a protocol
          // error: it is answered but not counted.
          io.rebuilt(opts.on_rebuild());
        }
        break;
      case Request::Kind::kQuery:
        io.answer(svc.query(req.queries.front()));
        break;
      case Request::Kind::kBatch: {
        // An oversized batch is consumed but never decoded: a hostile count
        // costs no allocation, and no query of it executes.
        const bool fits = req.count <= opts.max_batch;
        io.read_batch(req, fits);
        if (req.kind == Request::Kind::kError) {
          fail(req.code, req.message);
        } else if (!fits) {
          fail(ErrorCode::kBatchTooLarge,
               io.too_large(req.count, opts.max_batch));
        } else {
          errors += static_cast<int>(req.parse_errors.size());
          io.answer_batch(svc.query_batch(req.queries), req.parse_errors);
        }
        break;
      }
    }
  }
  return errors;
}

}  // namespace dapsp::serve
