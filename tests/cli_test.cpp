// Tests for the dapsp_cli option parser and command execution.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "graph/properties.hpp"
#include "obs/json.hpp"
#include "seq/dijkstra.hpp"

namespace dapsp::cli {
namespace {

Options parse(std::initializer_list<const char*> words) {
  return parse_options(std::vector<std::string>(words.begin(), words.end()));
}

/// The message parse() throws for `words`; empty when they parse.
std::string parse_error(std::initializer_list<const char*> words) {
  try {
    parse(words);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliOptions, DefaultsAndHelp) {
  const Options o = parse({});
  EXPECT_EQ(o.command, Command::kHelp);
  EXPECT_FALSE(usage().empty());
  EXPECT_EQ(parse({"help"}).command, Command::kHelp);
  EXPECT_EQ(parse({"--help"}).command, Command::kHelp);
}

TEST(CliOptions, ParsesFullCommandLine) {
  const Options o = parse({"apsp", "--gen", "grid", "--n", "25", "--p", "0.2",
                           "--wmin", "1", "--wmax", "9", "--zero", "0.3",
                           "--seed", "7", "--directed", "--algo", "blocker",
                           "--h", "4", "--format", "json", "--quiet"});
  EXPECT_EQ(o.command, Command::kApsp);
  EXPECT_EQ(o.gen, "grid");
  EXPECT_EQ(o.n, 25u);
  EXPECT_DOUBLE_EQ(o.p, 0.2);
  EXPECT_EQ(o.wmin, 1);
  EXPECT_EQ(o.wmax, 9);
  EXPECT_DOUBLE_EQ(o.zero_fraction, 0.3);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.directed);
  EXPECT_EQ(o.solver, service::Solver::kBlocker);
  EXPECT_EQ(o.h, 4u);
  EXPECT_EQ(o.format, Format::kJson);
  EXPECT_TRUE(o.quiet);
}

TEST(CliOptions, ParsesSourceList) {
  const Options o = parse({"kssp", "--sources", "0,3,17"});
  ASSERT_EQ(o.sources.size(), 3u);
  EXPECT_EQ(o.sources[2], 17u);
}

TEST(CliOptions, RejectsBadInput) {
  EXPECT_THROW(parse({"fly"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--n"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--n", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--p", "0.1x"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--algo", "magic"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--format", "xml"}), std::invalid_argument);
  EXPECT_THROW(parse({"kssp"}), std::invalid_argument);  // needs sources
  EXPECT_THROW(parse({"approx", "--eps", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--wmin", "5", "--wmax", "2"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"kssp", "--sources", "1,,2"}), std::invalid_argument);
  // The command and flags of the removed socket backend are unknown, not
  // silently accepted.
  EXPECT_EQ(parse_error({"worker"}), "unknown command 'worker' (try --help)");
  for (const char* flag : {"--backend", "--workers", "--transport",
                           "--net-timeout-ms", "--connect", "--rank"}) {
    EXPECT_EQ(parse_error({"query", "--q", "dist 0 1", flag, "1"}),
              std::string("unknown flag '") + flag + "' (try --help)")
        << flag;
  }
}

// Regression: unsigned flags used to be parsed as int64 and static_cast into
// their field, so "--n -1" silently became a ~4-billion-node graph and
// "--seed -1" wrapped to UINT64_MAX.  Every numeric flag now rejects
// negatives and values beyond its field's range.
TEST(CliOptions, RejectsNegativeAndOverflowingIntegers) {
  // Negatives on every unsigned flag.
  EXPECT_THROW(parse({"gen", "--n", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--h", "-3"}), std::invalid_argument);
  EXPECT_THROW(parse({"gen", "--seed", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--fault-seed", "-7"}), std::invalid_argument);
  EXPECT_THROW(parse({"kssp", "--sources", "0,-2"}), std::invalid_argument);
  EXPECT_THROW(parse({"serve", "--threads", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"serve", "--cache", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"serve", "--shards", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"serve", "--max-batch", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"profile", "--top", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--trace-capacity", "-1"}),
               std::invalid_argument);

  // Out-of-range / overflow per field.
  EXPECT_THROW(parse({"gen", "--n", "4294967295"}), std::invalid_argument);
  EXPECT_THROW(parse({"gen", "--n", "99999999999999999999"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--h", "4294967296"}), std::invalid_argument);
  EXPECT_THROW(parse({"kssp", "--sources", "4294967295"}),
               std::invalid_argument);

  // The full unsigned range still parses where the field allows it.
  EXPECT_EQ(parse({"gen", "--seed", "18446744073709551615"}).seed,
            18446744073709551615ull);
  EXPECT_EQ(parse({"gen", "--n", "4294967294"}).n, 4294967294u);
}

// Regression: parse_double accepted nan/inf/out-of-domain values, so
// "--p 1.5" generated a complete graph and "--eps nan" poisoned the scale
// ladder.  Probabilities now live in [0, 1] and eps in (0, inf).
TEST(CliOptions, RejectsNonFiniteAndOutOfDomainDoubles) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(parse({"gen", "--p", bad}), std::invalid_argument) << bad;
    EXPECT_THROW(parse({"gen", "--zero", bad}), std::invalid_argument) << bad;
    EXPECT_THROW(parse({"approx", "--eps", bad}), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(parse({"gen", "--p", "1.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"gen", "--p", "-0.1"}), std::invalid_argument);
  EXPECT_THROW(parse({"gen", "--zero", "2"}), std::invalid_argument);
  EXPECT_THROW(parse({"approx", "--eps", "-0.5"}), std::invalid_argument);
  // Boundaries stay legal.
  EXPECT_DOUBLE_EQ(parse({"gen", "--p", "0"}).p, 0.0);
  EXPECT_DOUBLE_EQ(parse({"gen", "--p", "1"}).p, 1.0);
  EXPECT_DOUBLE_EQ(parse({"gen", "--zero", "1"}).zero_fraction, 1.0);
}

TEST(CliCommands, MakeInputGraphGenerators) {
  for (const char* kind : {"erdos_renyi", "cycle", "path", "tree", "ba"}) {
    Options o = parse({"info", "--gen", kind, "--n", "12", "--seed", "4"});
    const auto g = make_input_graph(o);
    EXPECT_EQ(g.node_count(), 12u) << kind;
  }
  Options grid = parse({"info", "--gen", "grid", "--n", "12"});
  EXPECT_GE(make_input_graph(grid).node_count(), 12u);
  Options bad = parse({"info", "--gen", "moebius"});
  EXPECT_THROW(make_input_graph(bad), std::invalid_argument);
}

TEST(CliCommands, ApspTableOutputIsExact) {
  const Options o = parse({"apsp", "--n", "8", "--p", "0.4", "--seed", "5"});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("pipelined"), std::string::npos);
  EXPECT_NE(text.find("rounds:"), std::string::npos);
  // Spot-check one distance against the oracle.
  const auto g = make_input_graph(o);
  const auto dj = seq::dijkstra(g, 0);
  EXPECT_NE(text.find("dist:"), std::string::npos);
  (void)dj;
}

TEST(CliCommands, JsonOutputParsesShape) {
  const Options o = parse({"apsp", "--n", "6", "--p", "0.5", "--seed", "2",
                           "--format", "json"});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0);
  const std::string js = out.str();
  EXPECT_TRUE(obs::json_valid(js)) << js;
  EXPECT_EQ(js.front(), '{');
  EXPECT_NE(js.find("\"dist\":["), std::string::npos);
  EXPECT_NE(js.find("\"rounds\":"), std::string::npos);
  EXPECT_NE(js.find("\"round_messages\":{"), std::string::npos);
  // The algorithm label contains parens/commas; it must arrive as one
  // escaped string, not break the document (json_valid above) or the shape.
  EXPECT_NE(js.find("\"algorithm\":\"pipelined"), std::string::npos);
  // 6 rows of 6 entries -> at least 36 commas-ish; crude sanity only.
  EXPECT_GT(std::count(js.begin(), js.end(), ','), 30);
}

TEST(CliCommands, CsvOutputRowsMatchOracle) {
  const Options o = parse({"apsp", "--n", "6", "--p", "0.5", "--seed", "11",
                           "--format", "csv"});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("source,target,dist"), std::string::npos);
  // One data row per reachable ordered pair (6 nodes, connected generator).
  const auto g = make_input_graph(o);
  std::size_t reachable = 0;
  for (graph::NodeId s = 0; s < 6; ++s) {
    const auto dj = seq::dijkstra(g, s);
    for (graph::NodeId v = 0; v < 6; ++v) {
      reachable += dj.dist[v] != graph::kInfDist;
    }
  }
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, reachable + 4);  // 3 comment lines + header
}

TEST(CliCommands, AllAlgosAgreeThroughCli) {
  std::array<std::string, 4> outs;
  int idx = 0;
  for (const char* algo : {"pipelined", "blocker", "bf", "scaled"}) {
    const Options o = parse({"apsp", "--n", "10", "--p", "0.3", "--seed", "9",
                             "--algo", algo});
    std::ostringstream out, err;
    ASSERT_EQ(run_command(o, out, err), 0) << err.str();
    // Strip the header (differs per algo); compare the matrix part.
    const std::string text = out.str();
    outs[static_cast<std::size_t>(idx++)] =
        text.substr(text.find("dist:"));
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(outs[0], outs[2]);
  EXPECT_EQ(outs[0], outs[3]);
}

TEST(CliCommands, EverySolverWordReachesItsSolverOrFailsAtParse) {
  // Every command that runs a solver runs the one --solver names, and its
  // label says so; a combination it cannot run fails when the options are
  // parsed.  --sources takes pipelined and blocker only, and reference runs
  // no CONGEST solver.
  struct Invocation {
    std::vector<const char*> words;
    bool sources;
  };
  const Invocation commands[] = {{{"apsp"}, false},
                              {{"kssp", "--sources", "0,2"}, true},
                              {{"approx"}, false},
                              {{"profile", "--sources", "0,2"}, true}};
  for (const Invocation& c : commands) {
    for (const char* solver :
         {"pipelined", "blocker", "scaled", "approx", "reference", "bf"}) {
      std::vector<std::string> args(c.words.begin(), c.words.end());
      for (const char* w : {"--gen", "path", "--n", "8", "--seed", "3",
                            "--quiet", "--format", "json", "--solver"}) {
        args.emplace_back(w);
      }
      args.emplace_back(solver);
      const std::string word = solver;
      const std::string cmd = args[0] + " --solver " + word;
      const bool runs = word != "reference" &&
                        (!c.sources || word == "pipelined" ||
                         word == "blocker");
      if (!runs) {
        EXPECT_THROW(parse_options(args), std::invalid_argument) << cmd;
        continue;
      }
      std::ostringstream out, err;
      ASSERT_EQ(run_command(parse_options(args), out, err), 0)
          << cmd << ": " << err.str();
      const std::string key = args[0] == "profile" ? "target" : "algorithm";
      EXPECT_NE(out.str().find("\"" + key + "\":\"" + word), std::string::npos)
          << cmd << ": " << out.str().substr(0, 120);
    }
  }
  // The two spellings are one flag.
  EXPECT_EQ(parse({"apsp", "--algo", "scaled"}).solver,
            parse({"apsp", "--solver", "scaled"}).solver);
  for (const auto& words :
       {std::vector<const char*>{"kssp", "--solver", "scaled", "--sources",
                                 "0"},
        std::vector<const char*>{"apsp", "--solver", "reference"},
        std::vector<const char*>{"approx", "--sources", "0"},
        std::vector<const char*>{"serve", "--sources", "0"},
        std::vector<const char*>{"serve", "--solver", "magic"}}) {
    EXPECT_THROW(parse_options({words.begin(), words.end()}),
                 std::invalid_argument)
        << words[0] << " " << words[1] << " " << words[2];
  }
}

TEST(CliCommands, GenRoundTripsThroughFile) {
  const std::string path = "/tmp/dapsp_cli_test_graph.txt";
  {
    const Options o = parse({"gen", "--n", "9", "--p", "0.3", "--seed", "3",
                             "--out", path.c_str()});
    std::ostringstream out, err;
    ASSERT_EQ(run_command(o, out, err), 0);
  }
  {
    const Options o = parse({"info", "--graph", path.c_str()});
    std::ostringstream out, err;
    ASSERT_EQ(run_command(o, out, err), 0);
    EXPECT_NE(out.str().find("nodes: 9"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CliCommands, DotExportViaInfo) {
  const std::string path = "/tmp/dapsp_cli_test.dot";
  const Options o = parse({"info", "--gen", "path", "--n", "4", "--dot",
                           path.c_str()});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0);
  std::ifstream dot(path);
  ASSERT_TRUE(dot.good());
  std::stringstream content;
  content << dot.rdbuf();
  EXPECT_NE(content.str().find("graph dapsp"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliOptions, ParsesTraceFlags) {
  const Options o = parse({"apsp", "--trace", "/tmp/t.json", "--trace-jsonl",
                           "/tmp/t.jsonl"});
  ASSERT_TRUE(o.trace_file.has_value());
  EXPECT_EQ(*o.trace_file, "/tmp/t.json");
  ASSERT_TRUE(o.trace_jsonl_file.has_value());
  EXPECT_EQ(*o.trace_jsonl_file, "/tmp/t.jsonl");
  EXPECT_THROW(parse({"apsp", "--trace"}), std::invalid_argument);
  EXPECT_FALSE(parse({"apsp"}).trace_file.has_value());
}

TEST(CliOptions, ParsesProfileCommandAndCritpathFlags) {
  const Options o = parse({"profile", "--gen", "path", "--n", "64",
                           "--sources", "0", "--top", "3",
                           "--trace-capacity", "4096"});
  EXPECT_EQ(o.command, Command::kProfile);
  EXPECT_EQ(o.top_k, 3u);
  ASSERT_TRUE(o.trace_capacity.has_value());
  EXPECT_EQ(*o.trace_capacity, 4096u);
  EXPECT_TRUE(parse({"apsp", "--critpath"}).critpath);
  EXPECT_FALSE(parse({"apsp"}).critpath);
  EXPECT_THROW(parse({"profile", "--format", "csv"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--top", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"apsp", "--trace-capacity", "0"}),
               std::invalid_argument);
}

TEST(CliCommands, ProfileCommandReportsChain) {
  // Table format: the chain header and the check line must appear, and the
  // command must exit 0 (chain <= wall).
  {
    const Options o = parse({"profile", "--gen", "path", "--n", "128",
                             "--sources", "0", "--quiet"});
    std::ostringstream out, err;
    ASSERT_EQ(run_command(o, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("critical path:"), std::string::npos);
    EXPECT_NE(out.str().find("chain<=wall yes"), std::string::npos);
  }
  // JSON format: one valid object with the critpath block embedded.
  {
    const Options o = parse({"profile", "--gen", "path", "--n", "128",
                             "--sources", "0", "--format", "json", "--quiet"});
    std::ostringstream out, err;
    ASSERT_EQ(run_command(o, out, err), 0) << err.str();
    EXPECT_TRUE(obs::json_valid(out.str())) << out.str();
    EXPECT_NE(out.str().find("\"critpath\""), std::string::npos);
    EXPECT_NE(out.str().find("\"chain_le_wall\":true"), std::string::npos);
  }
}

TEST(CliCommands, TraceExportEndToEnd) {
  const std::string trace_path = "/tmp/dapsp_cli_test_trace.json";
  const std::string jsonl_path = "/tmp/dapsp_cli_test_trace.jsonl";
  const Options o = parse({"apsp", "--n", "10", "--p", "0.3", "--seed", "9",
                           "--quiet", "--trace", trace_path.c_str(),
                           "--trace-jsonl", jsonl_path.c_str()});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0) << err.str();

  std::stringstream trace;
  {
    std::ifstream f(trace_path);
    ASSERT_TRUE(f.good());
    trace << f.rdbuf();
  }
  EXPECT_TRUE(obs::json_valid(trace.str()));
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);

  std::stringstream jsonl;
  {
    std::ifstream f(jsonl_path);
    ASSERT_TRUE(f.good());
    jsonl << f.rdbuf();
  }
  EXPECT_TRUE(obs::jsonl_invalid_lines(jsonl.str()).empty());
  // The solver ran at least one engine round, so the record has a meta line
  // plus round events.
  EXPECT_NE(jsonl.str().find("\"type\":\"round\""), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(CliCommands, TraceOffLeavesOutputIdentical) {
  const auto run = [](bool traced) {
    const std::string path = "/tmp/dapsp_cli_test_identical.json";
    Options o = parse({"apsp", "--n", "9", "--p", "0.35", "--seed", "13"});
    if (traced) o.trace_file = path;
    std::ostringstream out, err;
    EXPECT_EQ(run_command(o, out, err), 0) << err.str();
    if (traced) std::remove(path.c_str());
    return out.str();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(CliOptions, ParsesFaultFlags) {
  const Options o = parse({"apsp", "--faults", "drop=0.1,seed=3",
                           "--fault-seed", "99"});
  ASSERT_TRUE(o.faults_spec.has_value());
  EXPECT_EQ(*o.faults_spec, "drop=0.1,seed=3");
  ASSERT_TRUE(o.fault_seed.has_value());
  EXPECT_EQ(*o.fault_seed, 99u);
  EXPECT_THROW(parse({"apsp", "--faults"}), std::invalid_argument);
  EXPECT_FALSE(parse({"apsp"}).faults_spec.has_value());
  EXPECT_NE(usage().find("--faults"), std::string::npos);
}

TEST(CliCommands, FaultRunReportsCountersAndBadSpecFails) {
  Options o = parse({"apsp", "--n", "10", "--p", "0.4", "--seed", "5",
                     "--quiet", "--faults", "drop=0.3,seed=8"});
  std::ostringstream out, err;
  ASSERT_EQ(run_command(o, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("faults: dropped="), std::string::npos)
      << out.str();

  // --fault-seed reroutes the randomness: a different seed must not crash
  // and (for this spec) changes the drop pattern.
  o.fault_seed = 1234;
  std::ostringstream out2, err2;
  ASSERT_EQ(run_command(o, out2, err2), 0) << err2.str();

  const Options bad = parse({"apsp", "--n", "6", "--faults", "drop=2.0"});
  std::ostringstream out3, err3;
  EXPECT_EQ(run_command(bad, out3, err3), 1);
  EXPECT_NE(err3.str().find("error:"), std::string::npos);
}

TEST(CliCommands, FaultsOffLeavesOutputIdentical) {
  const auto run = [](bool faulted) {
    Options o = parse({"apsp", "--n", "9", "--p", "0.35", "--seed", "13"});
    if (faulted) o.faults_spec = "seed=77";  // parsed but disabled
    std::ostringstream out, err;
    EXPECT_EQ(run_command(o, out, err), 0) << err.str();
    return out.str();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(CliCommands, MissingFileIsGracefulError) {
  const Options o = parse({"info", "--graph", "/nonexistent/nope.txt"});
  std::ostringstream out, err;
  EXPECT_EQ(run_command(o, out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
}

}  // namespace
}  // namespace dapsp::cli
