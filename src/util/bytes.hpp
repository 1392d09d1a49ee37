// The repo-wide raw byte buffer and the message payload built on it.
//
// Lives in util so the serialization layer (msg/) and the simulator (sim/)
// can share one definition without either including the other.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace nowlb {

using Bytes = std::vector<std::byte>;

/// A message payload: its encoded head bytes plus owned segments. A
/// segment is a moved slice's values, held by the payload instead of being
/// copied into the head; its bytes belong in the head at `offset` (so the
/// head holds the u64 count in front of them). The flattened form, the
/// head with every segment's bytes put back at its offset, is the
/// payload's wire format, and size() is its length. Copying a payload
/// copies its segments.
struct Payload {
  struct Segment {
    std::size_t offset = 0;  // head offset where the values belong
    std::vector<double> values;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  Bytes head;
  std::vector<Segment> segments;  // ascending offsets, none past the head

  Payload() = default;
  /// A payload of plain bytes, with no segment.
  Payload(Bytes bytes) : head(std::move(bytes)) {}

  /// Bytes the segments hold.
  std::size_t segment_bytes() const {
    std::size_t n = 0;
    for (const Segment& s : segments) n += s.values.size() * sizeof(double);
    return n;
  }
  /// Length of the flattened form.
  std::size_t size() const { return head.size() + segment_bytes(); }

  /// The flattened form: the bytes the payload stands for on the wire.
  Bytes flatten() const {
    Bytes out;
    out.reserve(size());
    std::size_t at = 0;
    for (const Segment& s : segments) {
      out.insert(out.end(), head.begin() + static_cast<std::ptrdiff_t>(at),
                 head.begin() + static_cast<std::ptrdiff_t>(s.offset));
      const auto* p = reinterpret_cast<const std::byte*>(s.values.data());
      out.insert(out.end(), p, p + s.values.size() * sizeof(double));
      at = s.offset;
    }
    out.insert(out.end(), head.begin() + static_cast<std::ptrdiff_t>(at),
               head.end());
    return out;
  }

  friend bool operator==(const Payload&, const Payload&) = default;
};

}  // namespace nowlb
