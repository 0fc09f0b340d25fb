// Binary wire protocol tests: client-encoded frames through serve_binary
// and back through read_response must reproduce query_batch bit-identically,
// and every malformed-input class must come back as a structured ERROR frame
// (recoverable frames keep the session alive; unrecoverable truncation ends
// it after the error).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/wire.hpp"
#include "service/query_service.hpp"

namespace dapsp::serve::wire {
namespace {

using graph::Graph;
using service::Query;
using service::QueryResult;
using service::QueryService;
using service::QueryType;

constexpr service::OracleBuildOptions kRef{service::Solver::kReference, 0,
                                           0.5};

/// Runs one client byte-string through the server loop; returns the parsed
/// response frames and reports the server's error count via *errors.
std::vector<Response> roundtrip(const QueryService& svc,
                                const std::string& request_bytes, int* errors,
                                const SessionOptions& opts = {}) {
  std::istringstream in(request_bytes);
  std::ostringstream out;
  *errors = serve_binary(svc, in, out, opts);
  std::istringstream rx(out.str());
  std::vector<Response> frames;
  while (auto f = read_response(rx)) frames.push_back(std::move(*f));
  return frames;
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Hand-rolled frame with arbitrary header bytes, for malformed-input tests.
std::string raw_frame(std::string payload) {
  std::string buf;
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf += payload;
  return buf;
}

class WireTest : public ::testing::Test {
 protected:
  WireTest()
      : g_(graph::erdos_renyi(20, 0.25, {0, 8, 0.25}, 1234)),
        svc_(service::build_oracle(g_, kRef)) {}

  Graph g_;
  QueryService svc_;
};

TEST_F(WireTest, BatchRoundtripMatchesQueryBatchBitIdentically) {
  std::vector<Query> queries;
  for (graph::NodeId u = 0; u < 6; ++u) {
    for (graph::NodeId v = 0; v < 6; ++v) {
      queries.push_back({QueryType::kDist, u, v});
      queries.push_back({QueryType::kNextHop, u, v});
      queries.push_back({QueryType::kPath, u, v});
    }
  }
  queries.push_back({QueryType::kDist, 99, 0});  // out of range -> ok=false

  std::string req;
  append_batch_request(req, queries);
  append_quit_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kBatch);

  const std::vector<QueryResult> expect = svc_.query_batch(queries);
  ASSERT_EQ(frames[0].results.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE(i);
    const QueryResult& got = frames[0].results[i];
    EXPECT_EQ(got.ok, expect[i].ok);
    EXPECT_EQ(got.type, expect[i].type);
    if (expect[i].ok) {
      EXPECT_EQ(got.dist, expect[i].dist);
      EXPECT_EQ(got.next_hop, expect[i].next_hop);
      EXPECT_EQ(got.path, expect[i].path);
    } else {
      EXPECT_EQ(got.error, expect[i].error);
    }
  }
}

TEST_F(WireTest, EmptyBatchIsValid) {
  std::string req;
  append_batch_request(req, {});
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, Response::Kind::kBatch);
  EXPECT_TRUE(frames[0].results.empty());
}

TEST_F(WireTest, StatsFrameCarriesValidJson) {
  svc_.query({QueryType::kDist, 0, 1});
  std::string req;
  append_stats_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kStats);
  EXPECT_TRUE(obs::json_valid(frames[0].stats_json)) << frames[0].stats_json;
  EXPECT_NE(frames[0].stats_json.find("\"snapshot\""), std::string::npos);
}

TEST_F(WireTest, OversizedBatchRejectedWholeAndSessionContinues) {
  SessionOptions opts;
  opts.max_batch = 4;
  const std::vector<Query> five(5, Query{QueryType::kDist, 0, 1});
  const std::vector<Query> two(2, Query{QueryType::kDist, 0, 1});
  std::string req;
  append_batch_request(req, five);
  append_batch_request(req, two);  // must still be answered
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors, opts);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kError);
  EXPECT_EQ(frames[0].code, ErrorCode::kBatchTooLarge);
  ASSERT_EQ(frames[1].kind, Response::Kind::kBatch);
  EXPECT_EQ(frames[1].results.size(), 2u);
  // No query of the oversized batch executed.
  EXPECT_EQ(svc_.stats().total_queries(), 2u);
}

TEST_F(WireTest, BadMagicVersionOpcodeAreRecoverable) {
  std::string req;
  req += raw_frame("XX\x01\x01");              // bad magic
  req += raw_frame(std::string("DQ\x07\x01", 4));  // bad version
  req += raw_frame(std::string("DQ\x01\x7f", 4));  // bad opcode
  append_stats_request(req);                   // session must still serve
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 3);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadMagic);
  EXPECT_EQ(frames[1].code, ErrorCode::kBadVersion);
  EXPECT_EQ(frames[2].code, ErrorCode::kBadOpcode);
  EXPECT_EQ(frames[3].kind, Response::Kind::kStats);
}

TEST_F(WireTest, BatchBodyShorterThanCountIsTruncatedError)  {
  // Declares 3 queries but carries 2.
  std::string payload = "DQ";
  payload.push_back('\x01');
  payload.push_back('\x01');
  put_u32(payload, 3);
  for (int i = 0; i < 2; ++i) {
    payload.push_back('\0');  // qtype dist
    put_u32(payload, 0);
    put_u32(payload, 1);
  }
  int errors = -1;
  const auto frames = roundtrip(svc_, raw_frame(payload), &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].code, ErrorCode::kTruncated);
}

TEST_F(WireTest, BatchBodyLongerThanCountIsBadBody) {
  // Declares 1 query but carries 2: a long body, as ROUTE answers it.
  std::string payload = "DQ";
  payload.push_back('\x01');
  payload.push_back('\x01');
  put_u32(payload, 1);
  for (int i = 0; i < 2; ++i) {
    payload.push_back('\0');  // qtype dist
    put_u32(payload, 0);
    put_u32(payload, 1);
  }
  int errors = -1;
  const auto frames = roundtrip(svc_, raw_frame(payload), &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadBody);
  EXPECT_EQ(frames[0].message, "batch body holds 2 queries but declares 1");
  EXPECT_EQ(svc_.stats().total_queries(), 0u);
}

TEST_F(WireTest, EmptyBodyOpcodesRejectTrailingBytes) {
  // STATS, QUIT and REBUILD take no body, like REPORT: one trailing byte is
  // bad_body, and the session goes on (QUIT included).
  std::string req;
  for (const char op : {'\x02', '\x03', '\x04'}) {
    req += raw_frame(std::string("DQ\x01", 3) + op + '\0');
  }
  append_stats_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 3);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadBody);
  EXPECT_EQ(frames[0].message, "stats body must be empty");
  EXPECT_EQ(frames[1].code, ErrorCode::kBadBody);
  EXPECT_EQ(frames[1].message, "quit body must be empty");
  EXPECT_EQ(frames[2].code, ErrorCode::kBadBody);
  EXPECT_EQ(frames[2].message, "rebuild body must be empty");
  EXPECT_EQ(frames[3].kind, Response::Kind::kStats);
}

TEST_F(WireTest, BadQueryTypeRejectsWholeBatch) {
  std::string payload = "DQ";
  payload.push_back('\x01');
  payload.push_back('\x01');
  put_u32(payload, 2);
  payload.push_back('\0');  // valid dist query
  put_u32(payload, 0);
  put_u32(payload, 1);
  payload.push_back('\x09');  // invalid qtype
  put_u32(payload, 0);
  put_u32(payload, 1);
  int errors = -1;
  const auto frames = roundtrip(svc_, raw_frame(payload), &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadQueryType);
  EXPECT_EQ(svc_.stats().total_queries(), 0u)
      << "a partially valid batch must not execute";
}

// Response frames are decoded from untrusted bytes too: a count of 2^32 - 1
// in a frame of a few bytes must fail as a short body before anything is
// reserved for it, for every count a response carries.
TEST(WireResponse, HostileCountsFailAsShortBodies) {
  constexpr std::uint32_t kHuge = 0xFFFFFFFFu;
  const auto ok_body = [](std::uint8_t opcode) {
    std::string p = "DR";
    p.push_back('\x01');
    p.push_back(static_cast<char>(opcode));
    if (opcode != 0x81) p.push_back('\x01');  // analytics status: ok
    return p;
  };
  const auto put_i64 = [](std::string& p) {
    put_u32(p, 0);
    put_u32(p, 0);
  };
  std::string results = ok_body(0x81);
  put_u32(results, kHuge);
  std::string path = ok_body(0x81);
  put_u32(path, 1);
  path.push_back('\0');  // type: dist
  path.push_back('\1');  // ok
  put_i64(path);         // dist
  put_u32(path, 0);      // next hop
  put_u32(path, kHuge);
  std::string routes = ok_body(0x85);
  put_u32(routes, kHuge);
  std::string kpath_nodes = ok_body(0x85);
  put_u32(kpath_nodes, 1);
  put_i64(kpath_nodes);  // weight
  put_u32(kpath_nodes, kHuge);
  std::string route_nodes = ok_body(0x86);
  route_nodes.push_back('\1');  // feasible
  put_i64(route_nodes);         // weight
  put_u32(route_nodes, kHuge);
  std::string sources = ok_body(0x87);
  for (int i = 0; i < 3; ++i) put_i64(sources);  // radius, diameter, pairs
  put_u32(sources, kHuge);
  std::string scores = ok_body(0x88);
  put_u32(scores, kHuge);

  const std::pair<const char*, std::string> frames[] = {
      {"batch results", results},  {"batch path", path},
      {"kpath routes", routes},    {"kpath route nodes", kpath_nodes},
      {"route nodes", route_nodes}, {"report sources", sources},
      {"bc scores", scores}};
  for (const auto& [name, payload] : frames) {
    std::istringstream in(raw_frame(payload));
    try {
      read_response(in);
      ADD_FAILURE() << name << ": decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "wire: short response body") << name;
    }
  }
}

TEST_F(WireTest, OversizedLengthPrefixEndsSessionWithError) {
  std::string req;
  put_u32(req, (64u << 20) + 1);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].code, ErrorCode::kFrameTooLarge);
}

TEST_F(WireTest, TruncatedStreamEndsSessionWithError) {
  std::string good;
  append_stats_request(good);
  // Length prefix promises 100 bytes; the stream ends first.
  std::string req = good;
  put_u32(req, 100);
  req += "short";
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, Response::Kind::kStats);
  EXPECT_EQ(frames[1].code, ErrorCode::kTruncated);
}

TEST_F(WireTest, QuitStopsProcessingRemainingFrames) {
  std::string req;
  append_quit_request(req);
  append_stats_request(req);  // must never be answered
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  EXPECT_TRUE(frames.empty());
}

TEST_F(WireTest, RebuildWithoutHookIsAnError) {
  std::string req;
  append_rebuild_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, Response::Kind::kError);
  EXPECT_EQ(frames[0].code, ErrorCode::kRebuildUnavailable);
}

TEST_F(WireTest, FailedRebuildIsRebuildFailedAndNotCounted) {
  SessionOptions opts;
  opts.on_rebuild = [] { return RebuildOutcome{false, 0, 0, "boom"}; };
  std::string req;
  append_rebuild_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors, opts);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kError);
  EXPECT_EQ(frames[0].code, ErrorCode::kRebuildFailed);
  EXPECT_EQ(frames[0].message, "rebuild failed: boom");
}

TEST_F(WireTest, RebuildWithHookSwapsAndReportsEpoch) {
  SnapshotManager manager(svc_, g_, kRef, 4);
  SessionOptions opts;
  opts.on_rebuild = [&manager] { return manager.rebuild_now(); };
  std::string req;
  append_rebuild_request(req);
  append_batch_request(
      req, std::vector<Query>{{QueryType::kDist, 0, 1}});
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors, opts);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kRebuild);
  EXPECT_EQ(frames[0].epoch, 1u);
  EXPECT_EQ(frames[1].kind, Response::Kind::kBatch);
  EXPECT_EQ(svc_.snapshot()->epoch(), 1u);
  EXPECT_EQ(svc_.snapshot()->shard_count(), 4u);
}

TEST_F(WireTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kBadMagic), "bad_magic");
  EXPECT_STREQ(error_code_name(ErrorCode::kBatchTooLarge), "batch_too_large");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadQueryType), "bad_query_type");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadK), "bad_k");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadAvoidSet), "bad_avoid_set");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadBody), "bad_body");
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kBatchTruncated), "batch_truncated");
  EXPECT_STREQ(error_code_name(ErrorCode::kRebuildUnavailable),
               "rebuild_unavailable");
  EXPECT_STREQ(error_code_name(ErrorCode::kRebuildFailed), "rebuild_failed");
  // The u16 values are wire format.
  EXPECT_EQ(static_cast<int>(ErrorCode::kBadBody), 10);
  EXPECT_EQ(static_cast<int>(ErrorCode::kRebuildFailed), 14);
}

// ---------------------------------------------------------------------------
// Analytics opcodes (KPATH / ROUTE / REPORT / BC).  Valid frames must
// reproduce direct QueryService answers bit-identically; every malformation
// class must come back as exactly one typed ERROR frame with the session
// still in sync (a valid frame after the bad one is answered normally).

/// Frame header for hand-rolled analytics requests ("DQ", version 1, op).
std::string analytics_payload(std::uint8_t op) {
  std::string p = "DQ";
  p.push_back('\x01');
  p.push_back(static_cast<char>(op));
  return p;
}

class AnalyticsWireTest : public ::testing::Test {
 protected:
  AnalyticsWireTest()
      : g_(std::make_shared<const Graph>(
            graph::erdos_renyi(20, 0.25, {0, 8, 0.25}, 1234))),
        svc_(service::build_oracle(*g_, kRef)) {
    svc_.enable_analytics(g_);
  }

  std::shared_ptr<const Graph> g_;
  QueryService svc_;
};

TEST_F(AnalyticsWireTest, OpcodesRoundtripAgainstDirectQueries) {
  query::RouteConstraints c;
  c.max_hops = 6;
  c.avoid_nodes = {3, 7};
  c.avoid_edges = {{0, 5}};
  std::string req;
  append_kpath_request(req, 0, 5, 3);
  append_route_request(req, 0, 5, c);
  append_report_request(req);
  append_bc_request(req, 4);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 4u);

  ASSERT_EQ(frames[0].kind, Response::Kind::kKPath);
  Query kq;
  kq.type = QueryType::kKPaths;
  kq.u = 0;
  kq.v = 5;
  kq.k = 3;
  const QueryResult kwant = svc_.query(kq);
  ASSERT_TRUE(frames[0].result.ok) << frames[0].result.error;
  ASSERT_EQ(frames[0].result.routes.size(), kwant.routes.size());
  for (std::size_t i = 0; i < kwant.routes.size(); ++i) {
    EXPECT_TRUE(frames[0].result.routes[i] == kwant.routes[i]) << i;
  }
  EXPECT_EQ(frames[0].result.dist, kwant.dist);

  ASSERT_EQ(frames[1].kind, Response::Kind::kRoute);
  Query rq;
  rq.type = QueryType::kRoute;
  rq.u = 0;
  rq.v = 5;
  rq.constraints = c;
  const QueryResult rwant = svc_.query(rq);
  ASSERT_TRUE(frames[1].result.ok) << frames[1].result.error;
  ASSERT_EQ(frames[1].result.feasible, rwant.feasible);
  EXPECT_EQ(frames[1].result.dist, rwant.dist);
  EXPECT_EQ(frames[1].result.path, rwant.path);

  ASSERT_EQ(frames[2].kind, Response::Kind::kReport);
  Query gq;
  gq.type = QueryType::kReport;
  const QueryResult gwant = svc_.query(gq);
  ASSERT_TRUE(frames[2].result.ok) << frames[2].result.error;
  EXPECT_TRUE(frames[2].result.report == gwant.report);

  ASSERT_EQ(frames[3].kind, Response::Kind::kBc);
  Query bq;
  bq.type = QueryType::kBetweenness;
  bq.samples = 4;
  const QueryResult bwant = svc_.query(bq);
  ASSERT_TRUE(frames[3].result.ok) << frames[3].result.error;
  ASSERT_EQ(frames[3].result.centrality.size(), bwant.centrality.size());
  for (std::size_t i = 0; i < bwant.centrality.size(); ++i) {
    // Scores cross the wire via bit_cast, so equality is exact.
    EXPECT_EQ(frames[3].result.centrality[i], bwant.centrality[i]) << i;
  }
}

TEST_F(AnalyticsWireTest, ServiceErrorsArriveInBandNotAsProtocolErrors) {
  // Out-of-range node id is a service-level refusal: the frame parses, the
  // response carries ok=false + message, and the error counter stays 0.
  std::string req;
  append_kpath_request(req, 99, 0, 3);
  append_report_request(req);  // session continues normally
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kKPath);
  EXPECT_FALSE(frames[0].result.ok);
  EXPECT_NE(frames[0].result.error.find("out of range"), std::string::npos)
      << frames[0].result.error;
  ASSERT_EQ(frames[1].kind, Response::Kind::kReport);
  EXPECT_TRUE(frames[1].result.ok);
}

TEST_F(WireTest, AnalyticsWithoutGraphIsInBandUnavailable) {
  // The plain fixture never called enable_analytics.
  std::string req;
  append_report_request(req);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kReport);
  EXPECT_FALSE(frames[0].result.ok);
  EXPECT_NE(frames[0].result.error.find("unavailable"), std::string::npos)
      << frames[0].result.error;
}

TEST_F(AnalyticsWireTest, KPathKZeroIsBadKAndSessionContinues) {
  std::string payload = analytics_payload(0x05);
  put_u32(payload, 0);
  put_u32(payload, 5);
  put_u32(payload, 0);  // k = 0
  std::string req = raw_frame(payload);
  append_kpath_request(req, 0, 5, 1);  // must still be answered
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].kind, Response::Kind::kError);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadK);
  ASSERT_EQ(frames[1].kind, Response::Kind::kKPath);
  EXPECT_TRUE(frames[1].result.ok);
}

TEST_F(AnalyticsWireTest, KPathTruncatedAndOversizedBodies) {
  std::string shortp = analytics_payload(0x05);
  put_u32(shortp, 0);
  put_u32(shortp, 5);  // missing k
  std::string longp = analytics_payload(0x05);
  put_u32(longp, 0);
  put_u32(longp, 5);
  put_u32(longp, 1);
  longp.push_back('\0');  // trailing byte
  std::string req = raw_frame(shortp) + raw_frame(longp);
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].code, ErrorCode::kTruncated);
  EXPECT_EQ(frames[1].code, ErrorCode::kBadBody);
}

TEST_F(AnalyticsWireTest, RouteTruncatedAvoidSetIsTruncatedError) {
  // Declares 3 avoid nodes but carries 1.
  std::string payload = analytics_payload(0x06);
  put_u32(payload, 0);  // u
  put_u32(payload, 5);  // v
  put_u32(payload, 0);  // max_hops
  put_u32(payload, 3);  // n_nodes (lie)
  put_u32(payload, 0);  // n_edges
  put_u32(payload, 2);  // only one node follows
  std::string req = raw_frame(payload);
  append_route_request(req, 0, 5, {});  // must still be answered
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].code, ErrorCode::kTruncated);
  ASSERT_EQ(frames[1].kind, Response::Kind::kRoute);
  EXPECT_TRUE(frames[1].result.ok);
}

TEST_F(AnalyticsWireTest, RouteHostileAvoidCountIsRejectedBeforeAllocation) {
  // A count of 2^32-1 would be a 16 GiB allocation if trusted; it must be
  // refused from the declared count alone (the frame is only 28 bytes).
  std::string payload = analytics_payload(0x06);
  put_u32(payload, 0);
  put_u32(payload, 5);
  put_u32(payload, 0);
  put_u32(payload, 0xFFFFFFFFu);  // n_nodes
  put_u32(payload, 0);            // n_edges
  std::string req = raw_frame(payload);
  append_report_request(req);  // session continues
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadAvoidSet);
  EXPECT_EQ(frames[1].kind, Response::Kind::kReport);
}

TEST_F(AnalyticsWireTest, ReportAndBcBodySizesAreExact) {
  std::string report_trailing = analytics_payload(0x07);
  report_trailing.push_back('\0');
  std::string bc_short = analytics_payload(0x08);
  bc_short.push_back('\0');  // 2 of the 4 sample bytes
  bc_short.push_back('\0');
  std::string bc_long = analytics_payload(0x08);
  put_u32(bc_long, 0);
  bc_long.push_back('\0');
  std::string req = raw_frame(report_trailing) + raw_frame(bc_short) +
                    raw_frame(bc_long);
  append_report_request(req);  // still in sync after three bad frames
  int errors = -1;
  const auto frames = roundtrip(svc_, req, &errors);
  EXPECT_EQ(errors, 3);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadBody);
  EXPECT_EQ(frames[1].code, ErrorCode::kTruncated);
  EXPECT_EQ(frames[2].code, ErrorCode::kBadBody);
  ASSERT_EQ(frames[3].kind, Response::Kind::kReport);
  EXPECT_TRUE(frames[3].result.ok);
}

TEST_F(AnalyticsWireTest, BatchContainingAnalyticsTypeIsRejected) {
  // qtype 3 (kKPaths) is a real QueryType but not a point query; BATCH
  // must refuse it the same way it refuses garbage qtypes.
  std::string payload = analytics_payload(0x01);
  put_u32(payload, 1);
  payload.push_back('\x03');
  put_u32(payload, 0);
  put_u32(payload, 1);
  int errors = -1;
  const auto frames = roundtrip(svc_, raw_frame(payload), &errors);
  EXPECT_EQ(errors, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].code, ErrorCode::kBadQueryType);
  EXPECT_EQ(svc_.stats().total_queries(), 0u);
}

}  // namespace
}  // namespace dapsp::serve::wire
