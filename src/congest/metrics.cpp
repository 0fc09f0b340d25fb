#include "congest/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace dapsp::congest {

RunStats& RunStats::operator+=(const RunStats& o) {
  if (o.last_message_round > 0) last_message_round = rounds + o.last_message_round;
  if (o.max_link_congestion > max_link_congestion) {
    max_link_congestion = o.max_link_congestion;
    max_congestion_round = rounds + o.max_congestion_round;
  }
  rounds += o.rounds;
  total_messages += o.total_messages;
  message_bytes += o.message_bytes;
  max_link_total = std::max(max_link_total, o.max_link_total);
  max_message_fields = std::max(max_message_fields, o.max_message_fields);
  hit_round_limit = hit_round_limit || o.hit_round_limit;
  skipped_rounds += o.skipped_rounds;
  faults += o.faults;
  round_messages_hist += o.round_messages_hist;
  send_seconds += o.send_seconds;
  deliver_seconds += o.deliver_seconds;
  receive_seconds += o.receive_seconds;
  send_ns_hist += o.send_ns_hist;
  deliver_ns_hist += o.deliver_ns_hist;
  receive_ns_hist += o.receive_ns_hist;
  if (!per_round_messages.empty() || !o.per_round_messages.empty()) {
    per_round_messages.resize(rounds, 0);
    // o's rounds occupy the tail; copy what was recorded.
    const std::size_t base = rounds - o.rounds;
    for (std::size_t i = 0; i < o.per_round_messages.size(); ++i) {
      per_round_messages[base + i] = o.per_round_messages[i];
    }
  }
  return *this;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " last_msg_round=" << last_message_round
     << " messages=" << total_messages << " bytes=" << message_bytes
     << " max_congestion=" << max_link_congestion
     << " max_link_total=" << max_link_total;
  if (skipped_rounds > 0) os << " skipped=" << skipped_rounds;
  if (faults.any()) {
    os << " faults{dropped=" << faults.dropped << " dup=" << faults.duplicated
       << " delayed=" << faults.delayed << " deferred=" << faults.deferred
       << " crash_dropped=" << faults.crash_dropped
       << " delivered=" << faults.delivered
       << " max_backlog=" << faults.max_backlog << "}";
  }
  if (hit_round_limit) os << " [HIT ROUND LIMIT]";
  return os.str();
}

}  // namespace dapsp::congest
