#include "cli/options.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace dapsp::cli {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg + " (try --help)");
}

std::int64_t parse_int(const std::string& flag, const std::string& value) {
  std::int64_t out = 0;
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    fail("bad integer for " + flag + ": '" + value + "'");
  }
  return out;
}

/// Unsigned flag values parse through here so "--n -1" is a loud error, not
/// a 4-billion-node graph: from_chars into uint64 rejects any sign, and the
/// per-flag `max` keeps the value inside the field it lands in (NodeId,
/// uint32, ...) instead of wrapping in a static_cast.
std::uint64_t parse_unsigned(const std::string& flag, const std::string& value,
                             std::uint64_t max) {
  std::uint64_t out = 0;
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec == std::errc::result_out_of_range) {
    fail(flag + " out of range (max " + std::to_string(max) + "): '" + value +
         "'");
  }
  if (ec != std::errc{} || ptr != end) {
    fail("bad unsigned integer for " + flag + ": '" + value + "'");
  }
  if (out > max) {
    fail(flag + " out of range (max " + std::to_string(max) + "): '" + value +
         "'");
  }
  return out;
}

double parse_double(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(value, &used);
  } catch (const std::exception&) {
    fail("bad number for " + flag + ": '" + value + "'");
  }
  if (used != value.size() || !std::isfinite(out)) {
    fail("bad number for " + flag + ": '" + value + "'");
  }
  return out;
}

/// parse_double plus a closed-interval domain check -- probabilities and
/// fractions ("--p 1.5" used to sail through and produce a complete graph).
double parse_fraction(const std::string& flag, const std::string& value) {
  const double out = parse_double(flag, value);
  if (out < 0.0 || out > 1.0) {
    fail(flag + " must be in [0, 1]: '" + value + "'");
  }
  return out;
}

std::vector<graph::NodeId> parse_id_list(const std::string& flag,
                                         const std::string& value) {
  std::vector<graph::NodeId> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) fail("empty id in " + flag);
    out.push_back(static_cast<graph::NodeId>(
        parse_unsigned(flag, item, graph::kNoNode - 1)));
  }
  if (out.empty()) fail(flag + " needs at least one id");
  return out;
}

Command parse_command(const std::string& word) {
  if (word == "gen") return Command::kGen;
  if (word == "info") return Command::kInfo;
  if (word == "apsp") return Command::kApsp;
  if (word == "kssp") return Command::kKssp;
  if (word == "approx") return Command::kApprox;
  if (word == "serve") return Command::kServe;
  if (word == "query") return Command::kQuery;
  if (word == "profile") return Command::kProfile;
  if (word == "help" || word == "--help" || word == "-h") return Command::kHelp;
  fail("unknown command '" + word + "'");
}

}  // namespace

Options parse_options(const std::vector<std::string>& args) {
  Options opt;
  if (args.empty()) return opt;  // kHelp
  opt.command = parse_command(args[0]);

  std::optional<service::Solver> solver;
  std::size_t i = 1;
  const auto next_value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) fail(flag + " needs a value");
    return args[++i];
  };

  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--graph") {
      opt.graph_file = next_value(a);
    } else if (a == "--gen" || a == "--family") {
      opt.gen = next_value(a);
    } else if (a == "--scale") {
      opt.scale = static_cast<std::uint32_t>(
          parse_unsigned(a, next_value(a), 26));
    } else if (a == "--edgefactor") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 1) fail("--edgefactor must be >= 1");
      opt.edgefactor = static_cast<graph::NodeId>(v);
    } else if (a == "--n") {
      opt.n = static_cast<graph::NodeId>(
          parse_unsigned(a, next_value(a), graph::kNoNode - 1));
    } else if (a == "--p") {
      opt.p = parse_fraction(a, next_value(a));
    } else if (a == "--wmin") {
      opt.wmin = parse_int(a, next_value(a));
    } else if (a == "--wmax") {
      opt.wmax = parse_int(a, next_value(a));
    } else if (a == "--zero") {
      opt.zero_fraction = parse_fraction(a, next_value(a));
    } else if (a == "--seed") {
      opt.seed = parse_unsigned(a, next_value(a),
                                std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--directed") {
      opt.directed = true;
    } else if (a == "--solver" || a == "--algo") {
      const std::string v = next_value(a);
      solver = service::parse_solver(v);
      if (!solver) {
        fail("unknown " + a + " '" + v +
             "' (pipelined|blocker|scaled|approx|reference|bf)");
      }
    } else if (a == "--sources") {
      opt.sources = parse_id_list(a, next_value(a));
    } else if (a == "--h") {
      opt.h = static_cast<std::uint32_t>(parse_unsigned(
          a, next_value(a), std::numeric_limits<std::uint32_t>::max()));
    } else if (a == "--eps") {
      opt.eps = parse_double(a, next_value(a));
    } else if (a == "--queries") {
      opt.queries_file = next_value(a);
    } else if (a == "--q") {
      opt.query_strings.push_back(next_value(a));
    } else if (a == "--threads") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 0) fail("--threads must be >= 0");
      opt.threads = static_cast<std::size_t>(v);
    } else if (a == "--pin") {
      opt.pin = true;
    } else if (a == "--cache") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 0) fail("--cache must be >= 0");
      opt.cache_capacity = static_cast<std::size_t>(v);
    } else if (a == "--shards") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 1) fail("--shards must be >= 1");
      opt.shards = static_cast<std::size_t>(v);
    } else if (a == "--max-batch") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 1) fail("--max-batch must be >= 1");
      opt.max_batch = static_cast<std::size_t>(v);
    } else if (a == "--format") {
      const std::string v = next_value(a);
      if (v == "table") {
        opt.format = Format::kTable;
      } else if (v == "json") {
        opt.format = Format::kJson;
      } else if (v == "csv") {
        opt.format = Format::kCsv;
      } else if (v == "binary") {
        opt.format = Format::kBinary;
      } else {
        fail("unknown --format '" + v + "' (table|json|csv|binary)");
      }
    } else if (a == "--out") {
      opt.out_file = next_value(a);
    } else if (a == "--dot") {
      opt.dot_file = next_value(a);
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else if (a == "--trace") {
      opt.trace_file = next_value(a);
    } else if (a == "--trace-jsonl") {
      opt.trace_jsonl_file = next_value(a);
    } else if (a == "--critpath") {
      opt.critpath = true;
    } else if (a == "--top") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 1) fail("--top must be >= 1");
      opt.top_k = static_cast<std::size_t>(v);
    } else if (a == "--trace-capacity") {
      const std::int64_t v = parse_int(a, next_value(a));
      if (v < 1) fail("--trace-capacity must be >= 1");
      opt.trace_capacity = static_cast<std::size_t>(v);
    } else if (a == "--faults") {
      opt.faults_spec = next_value(a);
    } else if (a == "--fault-seed") {
      opt.fault_seed = parse_unsigned(
          a, next_value(a), std::numeric_limits<std::uint64_t>::max());
    } else {
      fail("unknown flag '" + a + "'");
    }
  }

  // One set of rules for the commands that run a solver: apsp prints its
  // rows, kssp is apsp that requires --sources, approx is apsp with
  // --solver approx preset, and profile --sources profiles the same run.
  const bool rows_command = opt.command == Command::kApsp ||
                            opt.command == Command::kKssp ||
                            opt.command == Command::kApprox;
  opt.solver = solver.value_or(opt.command == Command::kApprox
                                   ? service::Solver::kApprox
                                   : service::Solver::kPipelined);
  if (opt.command == Command::kKssp && opt.sources.empty()) {
    fail("kssp needs --sources");
  }
  if (!opt.sources.empty() && !rows_command &&
      opt.command != Command::kProfile) {
    fail("--sources is read by apsp, kssp, approx and profile only");
  }
  if (!opt.sources.empty() && !service::solver_takes_sources(opt.solver)) {
    fail(std::string("--sources needs --solver pipelined or blocker, not ") +
         service::solver_name(opt.solver));
  }
  if (opt.solver == service::Solver::kReference && rows_command) {
    fail("--solver reference runs no CONGEST solver; it builds serve, query "
         "and profile oracles only");
  }
  if (opt.command == Command::kQuery && opt.query_strings.empty() &&
      !opt.queries_file) {
    fail("query needs --q and/or --queries");
  }
  if (opt.eps <= 0) fail("--eps must be positive");
  if (opt.wmin < 0 || opt.wmax < opt.wmin) fail("bad weight range");
  if (opt.format == Format::kBinary && opt.command != Command::kServe) {
    fail("--format binary is only supported by the serve command");
  }
  if (opt.command == Command::kProfile &&
      (opt.format == Format::kCsv || opt.format == Format::kBinary)) {
    fail("profile supports --format table|json");
  }
  return opt;
}

std::string usage() {
  return R"(dapsp_cli -- distributed weighted APSP (CONGEST) toolbox

usage: dapsp_cli <command> [flags]

commands:
  gen      generate a graph (write with --out / --dot)
  info     print graph statistics (n, m, W, Delta, diameter)
  apsp     run --solver, print its distance rows (all pairs or --sources)
  kssp     apsp that requires --sources
  approx   apsp with --solver approx preset ((1+eps)-approximate)
  serve    build a distance oracle, then answer query lines from stdin
           (or --queries FILE) until EOF/quit; "stats" prints counters,
           "batch N" pipelines the next N lines, "rebuild" hot-swaps a
           freshly built snapshot; --format binary speaks the framed
           batch protocol (see docs/SERVICE.md) instead of text lines
  query    build a distance oracle, run a one-shot query batch (--q/--queries)
  profile  run a solver under the critical-path profiler and print the
           longest causal chain through the round engine (table or
           --format json); with --sources profiles --solver's k-SSP
           run, otherwise an oracle build for --solver
  help     this text

input (choose one):
  --graph FILE             load a dapsp edge-list file
  --gen KIND               erdos_renyi|grid|cycle|path|tree|ba|rmat
                           (--family is an alias)                [erdos_renyi]
  --n N --p P              generator size / density              [32, 0.1]
  --scale S                rmat: n = 2^S (max 26)                [10]
  --edgefactor E           rmat: m = E * n edge candidates       [8]
  --wmin W --wmax W        weight range                          [0, 8]
  --zero F                 fraction of zero-weight edges         [0]
  --seed S --directed      determinism / directedness

solver (apsp, kssp, approx, serve, query, profile):
  --solver S               pipelined|blocker|scaled|approx|reference|bf
                           (--algo is an alias)  [pipelined; approx: approx]
  --sources 0,3,5          k-SSP sources (pipelined and blocker only)
  --h H                    hop parameter for blocker              [auto]
  --eps E                  approximation quality                  [0.5]

service (serve/query; query lines are "dist U V" | "next U V" | "path U V"):
  --q "path 0 5"           add one query (repeatable)
  --queries FILE           read query lines from FILE
  --threads N              batch query workers (0 = one per CPU of
                           the process's affinity mask)           [0]
  --pin                    pin engine worker threads to CPUs (Linux)
  --cache N                path-cache capacity (0 disables)       [4096]
  --shards N               vertex-range oracle shards             [1]
  --max-batch N            largest accepted batch                 [65536]

output:
  --format table|json|csv  result format                         [table]
  --format binary          framed binary protocol (serve only)
  --out FILE               write results / generated graph to FILE
  --dot FILE               write graphviz DOT of the graph
  --quiet                  stats only, no distance matrix

observability (records every engine round of the command):
  --trace FILE             Chrome trace_event JSON (chrome://tracing,
                           ui.perfetto.dev)
  --trace-jsonl FILE       compact JSONL run record (meta + per-round lines)
  --critpath               also record per-(node,round) work items; adds a
                           critpath block to --trace-jsonl and a critpath
                           lane to --trace (implied by the profile command)
  --top K                  segments listed in critical-path reports    [8]
  --trace-capacity N       ring capacity for round events + work items
                           (drops beyond it are counted and warned about)

fault injection (applies to every engine run of the command; deterministic
per seed -- see docs/TESTING.md for the grammar):
  --faults SPEC            e.g. "drop=0.1,dup=0.05,delay=0.2:3,bw=2,
                           crash=4@10..20,seed=99"
  --fault-seed S           override the spec's seed (for sweeps)
)";
}

}  // namespace dapsp::cli
