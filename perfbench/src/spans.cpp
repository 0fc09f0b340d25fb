#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::pair<double, double> tail(std::vector<double> v, double max_pct) {
  if (v.empty()) return {0.0, 50.0};
  const double n = static_cast<double>(v.size());
  const double p = std::clamp(100.0 * (1.0 - 10.0 / n), 50.0, max_pct);
  std::sort(v.begin(), v.end());
  const double rank = std::max(std::ceil(p / 100.0 * n), 1.0);
  return {v[static_cast<std::size_t>(rank) - 1], p};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// --- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog(Tracer& tracer, std::uint32_t thread)
    : tracer_(tracer), on_(tracer.on()), thread_(thread) {}

void SpanLog::flush() {
  if (!on_ || spans_.empty()) return;
  tracer_.merge(std::move(spans_));
  spans_.clear();
}

void SpanLog::open(std::string_view name) {
  if (!on_) return;
  Span s;
  s.name = std::string(name);
  s.start_ns = tracer_.now_ns();
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.thread = thread_;
  stack_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  next_aggregate_ns_ = spans_.back().start_ns;
}

void SpanLog::close() {
  if (!on_) return;
  spans_[stack_.back()].end_ns = tracer_.now_ns();
  stack_.pop_back();
}

void SpanLog::aggregate(std::string_view name, double seconds) {
  if (!on_ || stack_.empty()) return;
  Span s;
  s.name = std::string(name);
  s.start_ns = next_aggregate_ns_;
  s.end_ns = s.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  s.parent = static_cast<std::int64_t>(stack_.back());
  s.thread = thread_;
  s.aggregate = true;
  next_aggregate_ns_ = s.end_ns;
  spans_.push_back(std::move(s));
}

// --- Tracer ----------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::merge(std::vector<Span> spans) {
  std::lock_guard lock(mu_);
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

double dur_s(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

}  // namespace

double Ledger::mean_s(const std::string& name) const {
  const auto c = count.find(name);
  if (c == count.end() || c->second == 0) return 0.0;
  return total_s.at(name) / static_cast<double>(c->second);
}

Ledger Tracer::ledger() const {
  std::lock_guard lock(mu_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += dur_s(s);
  }
  Ledger l;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = dur_s(s);
    l.self_s[layer_of(s.name)] += std::max(0.0, d - child_s[i]);
    l.total_s[s.name] += d;
    ++l.count[s.name];
    if (s.parent < 0 && layer_of(s.name) == "bench") {
      l.top_s += d;
      l.covered_s += std::min(d, child_s[i]);
    }
  }
  return l;
}

void Tracer::write_json(std::ostream& out,
                        const std::string& provenance_json) const {
  std::lock_guard lock(mu_);
  out << "{\"provenance\": " << provenance_json << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n");
    dapsp::obs::JsonWriter w(out);
    w.begin_object()
        .field("id", static_cast<std::uint64_t>(i))
        .field("name", s.name)
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .field("parent", s.parent)
        .field("thread", static_cast<std::uint64_t>(s.thread))
        .field("aggregate", s.aggregate)
        .end_object();
  }
  out << "\n]}\n";
}

}  // namespace perfbench
