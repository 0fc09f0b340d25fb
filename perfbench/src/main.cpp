// End-to-end benchmark of the APSP library: builds (CONGEST Algorithm 1 and
// the reference sweep) and serving (analytics under rebuild).
// perfbench/run.py builds this binary and runs it as
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--canary ROUNDS,MESSAGES,BYTES] [--spans FILE]
//
// Output: the workload's figures and, with --trace 1, the per-layer ledger
// as text; then one {"provenance": ...} line; then the result line
// {"correct", "attempted", "failed", "metrics"}.  A wrong answer prints
// "correct": false and exits 1.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

int setup_reps(const Context& ctx) {
  if (ctx.tiny) return 1;
  return 25;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},       {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in BENCHMARK.json order.  A workload that does
/// not exercise a layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"graph.arcs", "count"},
    {"core.solver_s", "s"},
    {"congest.send_s", "s"},
    {"congest.deliver_s", "s"},
    {"congest.receive_s", "s"},
    {"congest.phase_share", "ratio"},
    {"congest.rounds", "count"},
    {"congest.messages", "count"},
    {"congest.executed_rounds", "count"},
    {"congest.skipped_rounds", "count"},
    {"congest.message_bytes", "bytes"},
    {"congest.ns_per_message", "ns"},
    {"obs.critpath_overhead", "ratio"},
    {"seq.dijkstra_s", "s"},
    {"seq.dijkstra_mteps", "MTEPS"},
    {"service.materialize_s", "s"},
    {"service.closure_mb", "MB"},
    {"serve.frame_server_ms", "ms"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"serve.sharded_build_s", "s"},
    {"serve.swap_ms", "ms"},
    {"serve.rebuild_s", "s"},
    {"serve.rebuild_wait_s", "s"},
    {"query.kpath_ms", "ms"},
    {"query.route_ms", "ms"},
    {"query.route_fallback_ratio", "ratio"},
    {"query.report_ms", "ms"},
    {"query.bc_ms", "ms"},
    {"graph.self_s", "s"},
    {"core.self_s", "s"},
    {"congest.self_s", "s"},
    {"seq.self_s", "s"},
    {"service.self_s", "s"},
    {"serve.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ms", "ms"},
};

constexpr const char* kLayers[] = {"graph", "core", "congest", "seq",
                                   "service", "serve", "bench"};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "congest_apsp|reference_build|serve_rebuild "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--canary R,M,B] [--spans FILE]\n";
  return 2;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double l = 0;
  in >> l;
  return l;
}

/// CPU time the hypervisor gave to other guests, summed over CPUs.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  in >> cpu;
  for (double& x : f) in >> x;
  return f[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const Context& ctx, double load_before,
                            double load_after, double steal_s) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::ostringstream os;
  dapsp::obs::JsonWriter w(os);
  w.begin_object()
      .field("host", std::string_view(host))
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu", cpu_model())
      .field("compiler", PERFBENCH_COMPILER)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("load_before", load_before)
      .field("load_after", load_after)
      .field("steal_s", steal_s)
      .field("workload", ctx.workload)
      .field("seed", ctx.seed)
      .field("seconds", ctx.seconds)
      .field("trace", ctx.trace)
      .field("tiny", ctx.tiny)
      .end_object();
  return os.str();
}

/// Layer self times, coverage and the per-layer table, from all spans.
void add_ledger(const Context& ctx, Result& r) {
  const Ledger l = ctx.tracer->ledger();
  for (const char* layer : kLayers) {
    const auto it = l.self_s.find(layer);
    r.per_layer[std::string(layer) + ".self_s"] =
        it == l.self_s.end() ? 0.0 : it->second;
  }
  r.per_layer["trace.coverage"] = l.coverage();
  std::printf("spans: %-34s %8s %12s %12s\n", "name", "count", "total_s",
              "mean_ms");
  for (const auto& [name, total] : l.total_s) {
    std::printf("spans: %-34s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(l.count.at(name)), total,
                1e3 * total / static_cast<double>(l.count.at(name)));
  }
  std::printf("coverage: %.6f of %.6f s top-level time is covered by layer "
              "spans\n",
              l.coverage(), l.top_s);
}

void print_result(bool correct, const Result& r, bool trace) {
  std::ostringstream os;
  dapsp::obs::JsonWriter w(os);
  w.begin_object()
      .field("correct", correct)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .key("metrics")
      .begin_object();
  const auto emit = [&](const MetricDef& m,
                        const std::map<std::string, double>& values) {
    const auto it = values.find(m.name);
    w.key(m.name)
        .begin_object()
        .field("value", it == values.end() ? 0.0 : it->second)
        .field("unit", m.unit)
        .end_object();
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m, r.per_layer);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, r.end_to_end);
  }
  w.end_object().end_object();
  std::cout << os.str() << std::endl;
}

}  // namespace

int run_main(int argc, char** argv) {
  Context ctx;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      ctx.workload = next();
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      ctx.trace = next() == "1";
    } else if (a == "--tiny") {
      ctx.tiny = true;
    } else if (a == "--canary") {
      const std::string v = next();
      if (std::sscanf(v.c_str(), "%" SCNu64 ",%" SCNu64 ",%" SCNu64, &ctx.expect_rounds,
                      &ctx.expect_messages, &ctx.expect_message_bytes) != 3) {
        return usage("--canary wants ROUNDS,MESSAGES,BYTES");
      }
    } else if (a == "--spans") {
      spans_path = next();
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const std::map<std::string, std::function<Result(const Context&)>> runs = {
      {"congest_apsp", run_congest_apsp},
      {"reference_build", run_reference_build},
      {"serve_rebuild", run_serve_rebuild},
  };
  const auto run = runs.find(ctx.workload);
  if (run == runs.end()) return usage("unknown workload");
  if (!(ctx.seconds > 0)) return usage("--seconds must be positive");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Tracer tracer(ctx.trace);
  ctx.tracer = &tracer;
  const double load_before = load_average();
  const double steal_before = steal_seconds();
  Result result;
  bool correct = true;
  try {
    result = run->second(ctx);
  } catch (const CheckFailure& e) {
    correct = false;
    std::cout << "WRONG ANSWER: " << e.what() << "\n";
  }
  const std::string prov = provenance_json(
      ctx, load_before, load_average(), steal_seconds() - steal_before);

  std::printf("workload %s seed %llu\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed));
  for (const Figure& f : result.figures) {
    std::printf("figure: %-28s %16.6f %s\n", f.name.c_str(), f.value,
                f.unit.c_str());
  }
  if (ctx.trace && correct) {
    add_ledger(ctx, result);
    for (const MetricDef& m : kPerLayer) {
      const auto it = result.per_layer.find(m.name);
      std::printf("layer: %-34s %16.6f %s\n", m.name,
                  it == result.per_layer.end() ? 0.0 : it->second, m.unit);
    }
    if (!spans_path.empty()) {
      std::ofstream f(spans_path);
      tracer.write_json(f, prov);
      if (!f) {
        std::cerr << "perfbench: cannot write " << spans_path << "\n";
        return 2;
      }
    }
  }
  std::cout << "{\"provenance\": " << prov << "}\n";
  print_result(correct, result, ctx.trace);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
