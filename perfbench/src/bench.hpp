// Shared types of the end-to-end benchmark: run context, result record,
// output checks, sample statistics and the span recorder behind the traced
// run.  See perfbench/README.md for the workloads and metric definitions.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A wrong answer.  It aborts the run: the result line reports
/// "correct": false and the process exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Median of the samples (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> v);

/// Tail latency: the highest nearest-rank percentile, capped at `max_pct`
/// and floored at the median, that leaves at least ten samples beyond it.
/// Returns {value, percentile}; {0, 50} when empty.  The default cap is
/// p90: on a shared host a one-second stall sets a run's p99, not its p90.
std::pair<double, double> tail(std::vector<double> v, double max_pct = 90.0);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// --- spans -----------------------------------------------------------------

/// One timed interval.  `name` is "<layer>.<call>"; the layer is the prefix
/// before the first dot.  Aggregate spans carry phase totals reported by
/// the program (the engine's RunStats) rather than an observed interval;
/// they are laid end to end from their parent's start.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the tracer's span list; -1 = top
  std::uint32_t thread = 0;
  bool aggregate = false;
};

class Tracer;

/// Per-thread span stack.  When the tracer is off every call is one branch.
class SpanLog {
 public:
  SpanLog(Tracer& tracer, std::uint32_t thread);
  ~SpanLog() { flush(); }
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Hands the finished spans to the tracer; call with no span open.
  void flush();

  bool on() const noexcept { return on_; }
  void open(std::string_view name);
  void close();
  /// Child of the innermost open span with a reported duration.
  void aggregate(std::string_view name, double seconds);

 private:
  Tracer& tracer_;
  const bool on_;
  const std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::int64_t next_aggregate_ns_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::string_view name) : log_(log) { log_.open(name); }
  ~Scope() { log_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
};

/// Self time, coverage and per-name totals computed from the spans.
struct Ledger {
  std::map<std::string, double> self_s;  ///< per layer
  std::map<std::string, double> total_s; ///< per span name
  std::map<std::string, std::uint64_t> count;  ///< per span name
  double top_s = 0.0;      ///< summed duration of top-level "bench.*" spans
  double covered_s = 0.0;  ///< part of top_s covered by their child spans
  double coverage() const { return top_s > 0 ? covered_s / top_s : 0.0; }
  double mean_s(const std::string& name) const;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const noexcept { return on_; }
  std::int64_t now_ns() const;

  /// Thread-safe; called by ~SpanLog.
  void merge(std::vector<Span> spans);

  Ledger ledger() const;
  /// {"provenance": ..., "spans": [...]} as one JSON document.
  void write_json(std::ostream& out, const std::string& provenance_json) const;

 private:
  const bool on_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Moves the calling thread to each allowed CPU in turn, one per call to
/// next(), and restores the original mask on destruction.  Interference
/// from other tenants of a shared host slows one core at a time for
/// seconds, so a run that samples every core is steadier than one the
/// scheduler leaves on a single core.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof allowed_, &allowed_);
  }
  ~CoreRotation() { sched_setaffinity(0, sizeof allowed_, &allowed_); }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void next() {
    for (int step = 0; step < CPU_SETSIZE; ++step) {
      cpu_ = (cpu_ + 1) % CPU_SETSIZE;
      if (!CPU_ISSET(cpu_, &allowed_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu_, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }

 private:
  cpu_set_t allowed_;
  int cpu_ = -1;
};

// --- run context and result ------------------------------------------------

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test sizes: ER n=32, RMAT scale 6
  /// Canary values of the congest_apsp build (perfbench/expected.json).
  std::uint64_t expect_rounds = 0;
  std::uint64_t expect_messages = 0;
  std::uint64_t expect_message_bytes = 0;
  Tracer* tracer = nullptr;
};

struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload-specific figures printed as the human-readable report
  /// (build_s, rounds, point_qps, ...).
  std::vector<Figure> figures;
  /// The generic end-to-end metrics (BENCHMARK.json "end_to_end").
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics the traced run measured (BENCHMARK.json
  /// "per_layer"); layers a workload does not exercise stay absent and are
  /// printed as 0.
  std::map<std::string, double> per_layer;

  void figure(const std::string& name, double value, const std::string& unit) {
    figures.push_back({name, value, unit});
  }
};

/// Setup is repeated `reps` times and its median reported; the last
/// repetition's state is kept.
int setup_reps(const Context& ctx);

Result run_congest_apsp(const Context& ctx);
Result run_reference_build(const Context& ctx);
Result run_serve_rebuild(const Context& ctx);

}  // namespace perfbench
