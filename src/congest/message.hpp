// CONGEST messages.
//
// In the CONGEST model each message carries O(log n) bits.  We model a
// message as a tag plus up to six 64-bit fields; algorithms only ever store
// O(1) quantities that are poly(n)-bounded (ids, distances, hop counts), so
// each message is a constant number of O(log n)-bit words.  Metrics record
// the field count so the constant is visible.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

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

/// Struct-of-arrays storage for one sender's round of messages.
///
/// The per-round arena used to hold Message structs (72 B each), so every
/// append and every delivery copy moved all kMaxFields words even though
/// algorithm payloads use 3-5.  Columns store the tag stream and a packed
/// payload stream holding only the used prefix of each message, so the
/// delivery path reads and writes contiguous, fully-live memory.
///
/// Fast lane: while every message appended since the last clear() shares one
/// payload width (the common case -- a protocol's messages are uniform), the
/// per-message end offsets are implicit (i*width) and the `ends_` column
/// stays empty.  The first mixed-width append backfills `ends_` and switches
/// to explicit offsets.  All buffers are grow-only across clear() calls, so
/// steady-state rounds allocate nothing (asserted by tests via
/// capacity_bytes()).
///
/// Reconstruction relies on the Message invariant that fields at and beyond
/// `used` are zero (the constructor and every producer only write
/// f[0..used)), so storing the used prefix loses nothing.
class MessageColumns {
 public:
  std::size_t size() const noexcept { return tags_.size(); }
  bool empty() const noexcept { return tags_.empty(); }
  /// Total payload words stored (== sum of `used` over all messages).
  std::size_t field_words() const noexcept { return fields_.size(); }
  /// Largest `used` over all messages; 0 when empty.
  std::uint32_t max_used() const noexcept { return max_used_; }

  void clear() noexcept {
    tags_.clear();
    ends_.clear();
    fields_.clear();
    uniform_ = true;
    width_ = kNoWidth;
    max_used_ = 0;
  }

  void push_back(const Message& m) {
    if (uniform_) {
      if (width_ == kNoWidth) {
        width_ = m.used;
        max_used_ = m.used;
      } else if (m.used != width_) {
        de_uniform();
        max_used_ = std::max(max_used_, m.used);
      }
    } else {
      max_used_ = std::max(max_used_, m.used);
    }
    tags_.push_back(m.tag);
    fields_.insert(fields_.end(), m.f.begin(), m.f.begin() + m.used);
    if (!uniform_) ends_.push_back(static_cast<std::uint32_t>(fields_.size()));
  }

  std::uint32_t tag(std::size_t i) const noexcept { return tags_[i]; }
  std::uint32_t used(std::size_t i) const noexcept {
    return uniform_ ? width_ : ends_[i] - (i == 0 ? 0 : ends_[i - 1]);
  }
  const std::int64_t* fields(std::size_t i) const noexcept {
    return fields_.data() +
           (uniform_ ? i * width_ : (i == 0 ? 0 : ends_[i - 1]));
  }

  /// Reconstructs message i in full, zero-padding the unused tail (for
  /// consumers that need a whole Message: the fault plane).
  void materialize(std::size_t i, Message& out) const noexcept {
    const std::uint32_t w = used(i);
    out.tag = tags_[i];
    out.used = w;
    const std::int64_t* f = fields(i);
    for (std::uint32_t j = 0; j < w; ++j) out.f[j] = f[j];
    for (std::uint32_t j = w; j < Message::kMaxFields; ++j) out.f[j] = 0;
  }

  /// Appends message i as an Envelope to `in`.  The freshly constructed
  /// envelope's payload is value-initialized (all zero), so only the used
  /// prefix needs writing.
  void append_envelope(std::size_t i, NodeId from,
                       std::vector<Envelope>& in) const {
    in.emplace_back();
    Envelope& e = in.back();
    e.from = from;
    e.msg.tag = tags_[i];
    const std::uint32_t w = used(i);
    e.msg.used = w;
    const std::int64_t* f = fields(i);
    for (std::uint32_t j = 0; j < w; ++j) e.msg.f[j] = f[j];
  }

  /// Rebuilds this container as a permutation of `src`: message j of `src`
  /// lands at position `pos[j]`.  `pos` must be a permutation of [0, n).
  /// Used by the per-link grouping scatter when some link carries more than
  /// one message.
  void assign_permuted(const MessageColumns& src,
                       std::span<const std::uint32_t> pos) {
    const std::size_t n = src.size();
    clear();
    tags_.resize(n);
    fields_.resize(src.fields_.size());
    uniform_ = src.uniform_;
    width_ = src.width_;
    max_used_ = src.max_used_;
    if (src.uniform_) {
      const std::uint32_t w = src.width_ == kNoWidth ? 0 : src.width_;
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t p = pos[j];
        tags_[p] = src.tags_[j];
        const std::int64_t* f = src.fields_.data() + j * w;
        std::int64_t* out = fields_.data() + p * w;
        for (std::uint32_t t = 0; t < w; ++t) out[t] = f[t];
      }
      return;
    }
    // Mixed widths: lay out the permuted end offsets first, then scatter.
    ends_.resize(n);
    for (std::size_t j = 0; j < n; ++j) ends_[pos[j]] = src.used(j);
    std::uint32_t off = 0;
    for (std::size_t p = 0; p < n; ++p) {
      off += ends_[p];
      ends_[p] = off;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t p = pos[j];
      tags_[p] = src.tags_[j];
      const std::uint32_t w = src.used(j);
      const std::int64_t* f = src.fields(j);
      std::int64_t* out = fields_.data() + ends_[p] - w;
      for (std::uint32_t t = 0; t < w; ++t) out[t] = f[t];
    }
  }

  /// Bytes of heap capacity currently held (grow-only; steady-state rounds
  /// keep this constant -- the zero-allocation proof tests assert on it).
  std::size_t capacity_bytes() const noexcept {
    return tags_.capacity() * sizeof(std::uint32_t) +
           ends_.capacity() * sizeof(std::uint32_t) +
           fields_.capacity() * sizeof(std::int64_t);
  }

 private:
  static constexpr std::uint32_t kNoWidth = 0xffffffffu;

  /// First mixed-width append: materialize the implicit uniform offsets.
  void de_uniform() {
    ends_.resize(tags_.size());
    std::uint32_t off = 0;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      off += width_;
      ends_[i] = off;
    }
    uniform_ = false;
  }

  std::vector<std::uint32_t> tags_;
  std::vector<std::uint32_t> ends_;  ///< payload end offset per message
  std::vector<std::int64_t> fields_;  ///< packed used-prefix payloads
  bool uniform_ = true;
  std::uint32_t width_ = kNoWidth;
  std::uint32_t max_used_ = 0;
};

}  // namespace dapsp::congest
