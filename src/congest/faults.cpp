#include "congest/faults.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace dapsp::congest {

namespace {

// Purposes keep the per-message fate draws independent of each other.
enum FatePurpose : std::uint64_t {
  kFateDrop = 1,
  kFateDup = 2,
  kFateDelay = 3,
  kFateDelayLen = 4,
};

/// Counter-based draw: a pure function of its inputs, never a shared stream.
/// This is what makes fault outcomes independent of thread count and of how
/// many rounds the sparse scheduler fast-forwarded (skipped rounds draw
/// nothing because nothing was sent).
std::uint64_t fate_bits(std::uint64_t seed, Round round, std::uint64_t slot,
                        std::uint64_t index, std::uint64_t purpose) noexcept {
  std::uint64_t state = seed;
  state ^= util::splitmix64(state) ^ (round * 0x9e3779b97f4a7c15ULL);
  state ^= util::splitmix64(state) ^ (slot * 0xbf58476d1ce4e5b9ULL);
  state ^= util::splitmix64(state) ^ (index * 0x94d049bb133111ebULL);
  state ^= util::splitmix64(state) ^ (purpose * 0xd6e8feb86659fd93ULL);
  return util::splitmix64(state);
}

bool fate_chance(double p, std::uint64_t seed, Round round, std::uint64_t slot,
                 std::uint64_t index, std::uint64_t purpose) noexcept {
  if (p <= 0.0) return false;
  const double u = static_cast<double>(
                       fate_bits(seed, round, slot, index, purpose) >> 11) *
                   0x1.0p-53;
  return u < p;
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("FaultPlan: bad spec \"" + spec + "\": " + why);
}

std::uint64_t parse_u64(const std::string& spec, const std::string& text,
                        const char* what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    bad_spec(spec, std::string(what) + " wants an unsigned integer, got \"" +
                       text + "\"");
  }
}

double parse_prob(const std::string& spec, const std::string& text,
                  const char* what) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
  } catch (const std::exception&) {
    bad_spec(spec,
             std::string(what) + " wants a probability, got \"" + text + "\"");
  }
  if (v < 0.0 || v > 1.0) {
    bad_spec(spec, std::string(what) + " must be in [0, 1], got " + text);
  }
  return v;
}

std::string format_prob(double p) {
  std::ostringstream os;
  os << p;
  return os.str();
}

}  // namespace

bool FaultPlan::enabled() const noexcept {
  return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0 ||
         link_bandwidth > 0 || !crashes.empty();
}

void FaultPlan::validate() const {
  auto bad = [](const std::string& why) {
    throw std::invalid_argument("FaultPlan: " + why);
  };
  auto check_prob = [&](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0)) {
      bad(std::string(what) + " must be in [0, 1], got " + format_prob(p));
    }
  };
  check_prob(drop_prob, "drop_prob");
  check_prob(dup_prob, "dup_prob");
  check_prob(delay_prob, "delay_prob");
  if (max_delay == 0) bad("max_delay must be >= 1");
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const Crash& c = crashes[i];
    if (c.revive <= c.at) {
      bad("crash of node " + std::to_string(c.node) +
          " revives at or before it happens");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (crashes[j].node == c.node) {
        bad("node " + std::to_string(c.node) +
            " has more than one crash interval");
      }
    }
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::string token;
  std::istringstream fields(spec);
  while (std::getline(fields, token, ',')) {
    if (token.empty()) bad_spec(spec, "empty field");
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      bad_spec(spec, "field \"" + token + "\" is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "drop") {
      plan.drop_prob = parse_prob(spec, value, "drop");
    } else if (key == "dup") {
      plan.dup_prob = parse_prob(spec, value, "dup");
    } else if (key == "delay") {
      // delay=P or delay=P:K (K = max delay in rounds, default 1).
      const std::size_t colon = value.find(':');
      plan.delay_prob =
          parse_prob(spec, value.substr(0, colon), "delay probability");
      plan.max_delay = colon == std::string::npos
                           ? 1
                           : parse_u64(spec, value.substr(colon + 1),
                                       "delay bound");
      if (plan.max_delay == 0) bad_spec(spec, "delay bound must be >= 1");
    } else if (key == "bw") {
      plan.link_bandwidth = parse_u64(spec, value, "bw");
    } else if (key == "crash") {
      // crash=NODE@AT or crash=NODE@AT..REVIVE
      const std::size_t at_pos = value.find('@');
      if (at_pos == std::string::npos) {
        bad_spec(spec, "crash wants NODE@ROUND, got \"" + value + "\"");
      }
      Crash c;
      c.node = static_cast<NodeId>(
          parse_u64(spec, value.substr(0, at_pos), "crash node"));
      const std::string when = value.substr(at_pos + 1);
      const std::size_t dots = when.find("..");
      c.at = parse_u64(spec, when.substr(0, dots), "crash round");
      if (dots != std::string::npos) {
        c.revive = parse_u64(spec, when.substr(dots + 2), "revive round");
      }
      plan.crashes.push_back(c);
    } else if (key == "seed") {
      plan.seed = parse_u64(spec, value, "seed");
    } else {
      bad_spec(spec, "unknown key \"" + key + "\"");
    }
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::spec() const {
  std::ostringstream os;
  const char* sep = "";
  auto field = [&]() -> std::ostringstream& {
    os << sep;
    sep = ",";
    return os;
  };
  if (drop_prob > 0.0) field() << "drop=" << format_prob(drop_prob);
  if (dup_prob > 0.0) field() << "dup=" << format_prob(dup_prob);
  if (delay_prob > 0.0) {
    field() << "delay=" << format_prob(delay_prob) << ":" << max_delay;
  }
  if (link_bandwidth > 0) field() << "bw=" << link_bandwidth;
  for (const Crash& c : crashes) {
    field() << "crash=" << c.node << "@" << c.at;
    if (c.revive != kNever) os << ".." << c.revive;
  }
  field() << "seed=" << seed;
  return os.str();
}

FaultPlane::FaultPlane(const FaultPlan& plan, NodeId nodes,
                       std::vector<NodeId> link_from,
                       std::vector<NodeId> link_target)
    : plan_(plan),
      link_from_(std::move(link_from)),
      link_target_(std::move(link_target)) {
  plan_.validate();
  crash_at_.assign(nodes, FaultPlan::kNever);
  revive_at_.assign(nodes, FaultPlan::kNever);
  for (const FaultPlan::Crash& c : plan_.crashes) {
    if (c.node >= nodes) {
      throw std::invalid_argument(
          "FaultPlan: crash node " + std::to_string(c.node) +
          " out of range for a " + std::to_string(nodes) + "-node graph");
    }
    crash_at_[c.node] = c.at;
    revive_at_[c.node] = c.revive;
  }
  queues_.resize(link_from_.size());
  active_mark_.assign(link_from_.size(), 0);
}

bool FaultPlane::node_down(NodeId v, Round r) const noexcept {
  return r >= crash_at_[v] && r < revive_at_[v];
}

bool FaultPlane::down_forever(NodeId v, Round r) const noexcept {
  return revive_at_[v] == FaultPlan::kNever && r >= crash_at_[v];
}

void FaultPlane::begin_round() { round_ = FaultStats{}; }

void FaultPlane::push_frame(std::uint32_t slot, const Message& m, Round ready) {
  LinkQueue& q = queues_[slot];
  q.frames.push_back(Frame{m, ready, q.next_seq++, false});
  std::push_heap(q.frames.begin(), q.frames.end(),
                 [](const Frame& a, const Frame& b) {
                   return a.ready != b.ready ? a.ready > b.ready
                                             : a.seq > b.seq;
                 });
  if (!active_mark_[slot]) {
    active_mark_[slot] = 1;
    active_slots_.push_back(slot);
  }
  ++pending_total_;
}

void FaultPlane::admit(Round r, std::uint32_t slot, const Message& m) {
  LinkQueue& q = queues_[slot];
  if (q.admit_round != r) {
    q.admit_round = r;
    q.admitted = 0;
  }
  const std::uint64_t i = q.admitted++;
  const std::uint64_t seed = plan_.seed;
  if (fate_chance(plan_.drop_prob, seed, r, slot, i, kFateDrop)) {
    ++round_.dropped;
    return;
  }
  std::uint64_t copies = 1;
  if (fate_chance(plan_.dup_prob, seed, r, slot, i, kFateDup)) {
    copies = 2;
    ++round_.duplicated;
  }
  for (std::uint64_t c = 0; c < copies; ++c) {
    // Each copy draws its own delay; the copy index is folded into the
    // draw counter so the duplicate can land in a different round.
    const std::uint64_t draw = i * 2 + c;
    Round delay = 0;
    if (fate_chance(plan_.delay_prob, seed, r, slot, draw, kFateDelay)) {
      delay = 1 + fate_bits(seed, r, slot, draw, kFateDelayLen) %
                      plan_.max_delay;
      ++round_.delayed;
    }
    push_frame(slot, m, r + delay);
  }
}

void FaultPlane::release(Round r, std::vector<std::vector<Envelope>>& inbox,
                         std::vector<std::uint8_t>& inbox_mark,
                         std::vector<NodeId>& receivers) {
  if (pending_total_ > round_.max_backlog) round_.max_backlog = pending_total_;
  // Ascending slot order makes each receiver's inbox sender-ascending, the
  // same order the fault-free arena produces.
  std::sort(active_slots_.begin(), active_slots_.end());
  const std::uint64_t cap = plan_.link_bandwidth;
  const auto later = [](const Frame& a, const Frame& b) {
    return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
  };
  std::size_t kept = 0;
  for (const std::uint32_t slot : active_slots_) {
    LinkQueue& q = queues_[slot];
    const NodeId to = link_target_[slot];
    std::uint64_t crossed = 0;
    while (!q.frames.empty() && q.frames.front().ready <= r &&
           (cap == 0 || crossed < cap)) {
      std::pop_heap(q.frames.begin(), q.frames.end(), later);
      const Frame frame = q.frames.back();
      q.frames.pop_back();
      --pending_total_;
      ++crossed;  // a discarded delivery still crossed the link
      if (node_down(to, r)) {
        ++round_.crash_dropped;
        continue;
      }
      if (!inbox_mark[to]) {
        inbox_mark[to] = 1;
        inbox[to].clear();
        receivers.push_back(to);
      }
      inbox[to].push_back(Envelope{link_from_[slot], frame.msg});
      ++round_.delivered;
    }
    // Anything eligible but still queued was starved by the bandwidth cap;
    // count each held message once.
    for (Frame& f : q.frames) {
      if (f.ready <= r && !f.deferred) {
        f.deferred = true;
        ++round_.deferred;
      }
    }
    if (q.frames.empty()) {
      active_mark_[slot] = 0;
    } else {
      active_slots_[kept++] = slot;
    }
  }
  active_slots_.resize(kept);
  std::sort(receivers.begin(), receivers.end());
}

Round FaultPlane::next_due_round() const noexcept {
  Round due = FaultPlan::kNever;
  for (const std::uint32_t slot : active_slots_) {
    const Round top = queues_[slot].frames.front().ready;
    if (top < due) due = top;
  }
  return due;
}

}  // namespace dapsp::congest
