// CONGEST messages.
//
// In the CONGEST model each message carries O(log n) bits.  We model a
// message as a tag plus up to kMaxFields 64-bit fields; algorithms only ever
// store O(1) quantities that are poly(n)-bounded (ids, distances, hop
// counts), so each message is a constant number of O(log n)-bit words.
// Metrics record the field count so the constant is visible, and count each
// message's wire size as an 8-byte (tag, used) header plus 8 bytes per used
// field (RunStats::message_bytes).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "graph/graph.hpp"
#include "util/int_math.hpp"

namespace dapsp::congest {

using graph::NodeId;
using graph::Weight;
using Round = std::uint64_t;

struct Message {
  // Room for the largest algorithm payload (5 fields) plus the multiplexer's
  // two-field wrapper; every field is a poly(n)-bounded quantity, so a
  // message stays O(log n) bits.
  static constexpr std::size_t kMaxFields = 8;

  std::uint32_t tag = 0;
  std::uint32_t used = 0;
  std::array<std::int64_t, kMaxFields> f{};

  constexpr Message() = default;
  Message(std::uint32_t tag_, std::initializer_list<std::int64_t> fields)
      : tag(tag_) {
    util::check(fields.size() <= kMaxFields, "Message: too many fields");
    for (const std::int64_t x : fields) f[used++] = x;
  }

  friend bool operator==(const Message&, const Message&) = default;
};

/// A received message together with its sender.
struct Envelope {
  NodeId from = 0;
  Message msg;
};

}  // namespace dapsp::congest
