// Command-line parsing for the dapsp_cli tool.
//
// Kept as a library (thin main in apps/) so the parser and command logic are
// unit-testable.  Flags follow "--name value" / "--flag" conventions; the
// parser is strict: unknown flags and malformed values are errors, because a
// silently-ignored typo in an experiment script corrupts results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/oracle.hpp"

namespace dapsp::cli {

enum class Command {
  kGen,      ///< generate a graph and write it (or its DOT) out
  kInfo,     ///< print graph statistics
  kApsp,     ///< run --solver, print its distance rows
  kKssp,     ///< apsp that requires --sources
  kApprox,   ///< apsp with --solver approx preset
  kServe,    ///< build a distance oracle, answer queries from stdin/--queries
  kQuery,    ///< build a distance oracle, run a one-shot query batch
  kProfile,  ///< run a solver under the critical-path profiler, report chain
  kHelp,
};

enum class Format { kTable, kJson, kCsv, kBinary };

struct Options {
  Command command = Command::kHelp;

  // Input: either a file or a generator spec.
  std::optional<std::string> graph_file;
  std::string gen = "erdos_renyi";  // erdos_renyi|grid|cycle|path|tree|ba|rmat
  graph::NodeId n = 32;
  double p = 0.1;
  std::uint32_t scale = 10;         // rmat: n = 2^scale
  graph::NodeId edgefactor = 8;     // rmat: m = edgefactor * n
  graph::Weight wmin = 0;
  graph::Weight wmax = 8;
  double zero_fraction = 0.0;
  std::uint64_t seed = 1;
  bool directed = false;

  // Solver parameters: --solver (alias --algo) for every command that
  // runs one; approx presets kApprox.
  service::Solver solver = service::Solver::kPipelined;
  std::vector<graph::NodeId> sources;  // k-SSP; pipelined and blocker only
  std::uint32_t h = 0;  // 0 = auto
  double eps = 0.5;

  // Distance-oracle service (serve / query commands).
  std::optional<std::string> queries_file;  // protocol lines for serve/query
  std::vector<std::string> query_strings;   // repeated --q "path 0 5"
  std::size_t threads = 0;  // batch workers; 0 = one per CPU the process may
                            // run on (its affinity mask)
  bool pin = false;                         // pin engine worker threads
  std::size_t cache_capacity = 4096;        // cached paths; 0 disables
  std::size_t shards = 1;                   // vertex-range oracle shards
  std::size_t max_batch = 1 << 16;          // largest accepted batch

  // Output.
  Format format = Format::kTable;
  std::optional<std::string> out_file;   // graph text (gen) / results
  std::optional<std::string> dot_file;   // graphviz
  bool quiet = false;                    // suppress distance matrix

  // Observability: record every engine round (all engine runs the command
  // triggers, including oracle builds) and export after the run.
  std::optional<std::string> trace_file;        // Chrome trace_event JSON
  std::optional<std::string> trace_jsonl_file;  // compact JSONL run record
  bool critpath = false;                 // record work items + critpath blocks
  std::size_t top_k = 8;                 // --top: segments in critpath reports
  std::optional<std::size_t> trace_capacity;  // override both ring capacities

  // Fault injection: a congest::FaultPlan spec applied to every engine run
  // the command triggers (see congest/faults.hpp for the grammar), plus an
  // optional seed override so sweeps can vary randomness without editing
  // the spec.
  std::optional<std::string> faults_spec;
  std::optional<std::uint64_t> fault_seed;
};

/// Parses argv; throws std::invalid_argument with a message on bad input.
Options parse_options(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

}  // namespace dapsp::cli
