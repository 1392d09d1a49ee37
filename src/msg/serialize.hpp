// Byte-archive serialization for message payloads.
//
// A message lists its fields once, and msg::encode, msg::decode and
// msg::encoded_size walk that one list with a Writer, a Reader and a Sizer,
// so they cannot disagree:
//
//   struct MoveOrder {
//     std::int32_t peer_rank = 0;
//     std::int32_t count = 0;
//     std::uint8_t is_send = 0;
//     template <class A> void fields(A& a) { a(peer_rank, count, is_send); }
//   };
//
// Field kinds and their layouts:
//   - a trivially copyable value: its bytes;
//   - a std::vector of such values: a u64 count, then the elements. A
//     std::span of them is written the same way, so a sender can borrow;
//   - an msg::Owned, a moved slice's values: a vector's layout, but the
//     writer hands the vector over as a segment of the Payload (see
//     util/bytes.hpp) and the reader takes it back, so the values are
//     never copied;
//   - a nested message (anything with fields()): its fields;
//   - a list of messages (a std::vector of them, or a RecordList): a u32
//     count, then each message;
//   - a Payload: a u64 length, then its flattened bytes, its segments
//     carried over. The reader takes the rest of the message for it, so
//     it comes last.
// `a.trailer(marker, flag, fields...)` writes the marker byte and the fields
// only when `flag` is set; the reader takes a trailer only when the next
// byte is its marker, so trailers come last, in declaration order. A
// declaration may branch on a field it has already listed. The Reader is
// bounds-checked: a malformed payload throws instead of reading garbage.
// msg::encode returns a Payload; its size() is the encoded size, segments
// included, and its head is allocated without them.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <type_traits>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace nowlb::msg {

using Bytes = nowlb::Bytes;
using Payload = nowlb::Payload;

class Sizer;

/// The owned field kind: a moved slice's values, handed over instead of
/// copied. Its layout is a vector's, a u64 count and then the values. The
/// writer keeps the count in the head and moves the vector out as a
/// segment, so writing empties the field; the reader moves it back. `V`
/// is a span of the values where a message is only sized. The values are
/// doubles: a segment holds a std::vector<double>.
template <class V = std::vector<double>>
struct Owned {
  V values;
};

/// A message: a type that lists its fields for the archives.
template <typename T>
concept HasFields = requires(T& t, Sizer& a) { t.fields(a); };

/// A list of messages that its owner streams instead of holding, with the
/// bytes of a std::vector of them. Sizing looks at record(i) for each
/// i < size(); writing takes each record with take(i) and frees it as soon
/// as it is written; reading calls reserve(n) with the count, then hands
/// each record to read() as soon as it is read. So no record is held twice.
template <typename L>
concept RecordList = requires(L& l, typename L::value_type& m, std::size_t i) {
  { l.size() } -> std::convertible_to<std::size_t>;
  l.record(i);
  l.take(i);
  l.reserve(i);
  l.read(std::move(m));
};

namespace detail {

// The walkers' failure path, out of line so a check costs one branch: the
// message is "malformed payload: " and then the parts.
template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void malformed(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  NOWLB_CHECK(false, "malformed payload: " << os.str());
}

template <typename T>
inline constexpr bool is_vector = false;
template <typename T, typename Alloc>
inline constexpr bool is_vector<std::vector<T, Alloc>> = true;
template <typename T>
inline constexpr bool is_message_vector = false;
template <typename M, typename Alloc>
inline constexpr bool is_message_vector<std::vector<M, Alloc>> = HasFields<M>;
template <typename T>
inline constexpr bool is_span = false;
template <typename T, std::size_t N>
inline constexpr bool is_span<std::span<T, N>> = true;
template <typename T>
inline constexpr bool is_owned = false;
template <typename V>
inline constexpr bool is_owned<Owned<V>> = true;

/// A std::vector of messages as a RecordList.
template <typename V>
struct Elements {
  using value_type = typename V::value_type;
  V& v;
  std::size_t size() const { return v.size(); }
  value_type& record(std::size_t i) { return v[i]; }
  value_type& take(std::size_t i) { return v[i]; }
  void reserve(std::size_t n) { v.reserve(n); }
  void read(value_type&& m) { v.push_back(std::move(m)); }
};

/// The one statement of the field kinds; each archive supplies the five
/// layouts: value(), values() (u64-counted), owned() (u64-counted, the
/// values in a segment), list() (u32-counted) and payload().
template <typename A, typename T>
void walk(A& a, T& v) {
  if constexpr (HasFields<T>) {
    v.fields(a);
  } else if constexpr (RecordList<T>) {
    a.list(v);
  } else if constexpr (is_message_vector<T>) {
    Elements<T> list{v};
    a.list(list);
  } else if constexpr (is_vector<T> || is_span<T>) {
    a.values(v);
  } else if constexpr (is_owned<std::remove_const_t<T>>) {
    a.owned(v);
  } else if constexpr (std::is_same_v<std::remove_const_t<T>, Payload>) {
    a.payload(v);
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "a field is a value, a vector, or a message");
    a.value(v);
  }
}

}  // namespace detail

/// Walks a message and adds up its encoded size, and what of it segments
/// hold.
class Sizer {
 public:
  template <typename... F>
  void operator()(F&... f) { (detail::walk(*this, f), ...); }
  template <typename... F>
  void trailer(std::uint8_t /*marker*/, const std::uint8_t& flag, F&... f) {
    if (flag) {
      n_ += sizeof(std::uint8_t);
      (*this)(f...);
    }
  }
  /// The encoded size, segments included.
  std::size_t size() const { return n_; }
  /// The head's size: the encoded size less the segments' bytes.
  std::size_t head_size() const { return n_ - segment_bytes_; }

 private:
  template <typename A, typename T>
  friend void detail::walk(A&, T&);

  template <typename T>
  void value(const T&) { n_ += sizeof(T); }
  template <typename V>
  void values(const V& v) {
    n_ += sizeof(std::uint64_t) + v.size() * sizeof(typename V::value_type);
  }
  template <typename V>
  void owned(const Owned<V>& o) {
    static_assert(
        std::is_same_v<std::remove_const_t<typename V::value_type>, double>,
        "owned values are doubles");
    add_segments(o.values.size() * sizeof(double));
  }
  void payload(const Payload& p) {
    add_segments(p.segment_bytes());
    n_ += p.head.size();
  }
  template <typename L>
  void list(L& l) {
    n_ += sizeof(std::uint32_t);
    for (std::size_t i = 0; i < l.size(); ++i) {
      auto&& m = l.record(i);
      detail::walk(*this, m);
    }
  }
  /// A u64 count or length, then `bytes` that segments hold.
  void add_segments(std::size_t bytes) {
    n_ += sizeof(std::uint64_t) + bytes;
    segment_bytes_ += bytes;
  }

  std::size_t n_ = 0;
  std::size_t segment_bytes_ = 0;
};

template <typename T>
std::size_t encoded_size(const T& v) {
  Sizer s;
  s(const_cast<T&>(v));  // the sizer only reads
  return s.size();
}

class Writer {
 public:
  /// `capacity`: the head's size, when known, so the buffer never grows.
  explicit Writer(std::size_t capacity = 0) { out_.head.reserve(capacity); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put(const T& v) {
    append(&v, sizeof(T));
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put_vec(const std::vector<T>& v) {
    return put_span(std::span<const T>(v));
  }

  Writer& put_bytes(const Bytes& b) { return put_vec(b); }

  template <typename... F>
  void operator()(F&... f) { (detail::walk(*this, f), ...); }
  template <typename... F>
  void trailer(std::uint8_t marker, const std::uint8_t& flag, F&... f) {
    if (flag) {
      put(marker);
      (*this)(f...);
    }
  }

  /// The bytes written; only for a payload without segments.
  Bytes take() {
    NOWLB_CHECK(out_.segments.empty(), "take() would drop "
                                           << out_.segments.size()
                                           << " segment(s)");
    return std::move(out_.head);
  }
  /// The payload written: the head and the segments handed over.
  Payload take_payload() { return std::move(out_); }

 private:
  template <typename A, typename T>
  friend void detail::walk(A&, T&);

  template <typename T>
  void value(const T& v) { put(v); }
  template <typename V>
  void values(const V& v) {
    put_span(std::span<const typename V::value_type>(v));
  }
  template <typename V>
  void owned(Owned<V>& o) {
    static_assert(std::is_same_v<V, std::vector<double>>,
                  "an owned field is written from the vector it hands over");
    put<std::uint64_t>(o.values.size());
    out_.segments.push_back({out_.head.size(), std::move(o.values)});
  }
  /// Copies `p`, segments included: a nested payload is not handed over.
  void payload(const Payload& p) {
    put<std::uint64_t>(p.size());
    const std::size_t base = out_.head.size();
    append(p.head.data(), p.head.size());
    for (const Payload::Segment& s : p.segments) {
      out_.segments.push_back({base + s.offset, s.values});
    }
  }
  template <typename L>
  void list(L& l) {
    put(static_cast<std::uint32_t>(l.size()));
    for (std::size_t i = 0; i < l.size(); ++i) {
      auto&& m = l.take(i);
      detail::walk(*this, m);
    }
  }

  template <typename T>
  Writer& put_span(std::span<const T> v) {
    put<std::uint64_t>(v.size());
    append(v.data(), v.size_bytes());
    return *this;
  }
  void append(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::byte*>(p);
    // One copy, no zero-fill.
    out_.head.insert(out_.head.end(), bytes, bytes + n);
  }
  Payload out_;
};

class Reader {
 public:
  /// Reads plain bytes: an owned field finds no segment there.
  explicit Reader(const Bytes& buf) : buf_(buf) {}
  /// Reads `payload`, taking each segment as its owned field is read.
  explicit Reader(Payload& payload)
      : buf_(payload.head), segments_(payload.segments) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T v{};
    extract(&v, sizeof(T));
    return v;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vec() {
    const auto n = get<std::uint64_t>();
    NOWLB_CHECK(n <= remaining() / sizeof(T),
                "payload truncated: need " << n << " elements of "
                                           << sizeof(T) << " bytes, have "
                                           << remaining() << " bytes");
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  Bytes get_bytes() {
    const auto n = get<std::uint64_t>();
    check_available(n);
    Bytes b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  template <typename... F>
  void operator()(F&... f) { (detail::walk(*this, f), ...); }
  template <typename... F>
  void trailer(std::uint8_t marker, std::uint8_t& flag, F&... f) {
    if (remaining() > 0 && buf_[pos_] == static_cast<std::byte>(marker)) {
      ++pos_;
      flag = 1;
      (*this)(f...);
    }
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
  /// Segments no owned field has taken yet.
  std::size_t segments_left() const { return segments_.size() - next_; }
  bool done() const { return remaining() == 0 && segments_left() == 0; }

 private:
  template <typename A, typename T>
  friend void detail::walk(A&, T&);

  template <typename T>
  void value(T& v) { v = get<T>(); }
  template <typename V>
  void values(V& v) {
    static_assert(detail::is_vector<V>, "a span is only written");
    if constexpr (std::is_same_v<V, Bytes>) {
      v = get_bytes();  // one copy, no zero-fill
    } else {
      v = get_vec<typename V::value_type>();
    }
  }
  /// The segment must sit where the count ends and hold that many values.
  template <typename V>
  void owned(Owned<V>& o) {
    static_assert(std::is_same_v<V, std::vector<double>>,
                  "an owned field is read into a vector");
    const auto n = get<std::uint64_t>();
    if (next_ == segments_.size() || segments_[next_].offset != pos_) {
      detail::malformed("no segment holds the ", n,
                        " values counted before byte ", pos_);
    }
    std::vector<double>& v = segments_[next_++].values;
    if (v.size() != n) {
      detail::malformed("a segment of ", v.size(),
                        " values where its count says ", n);
    }
    o.values = std::move(v);
  }
  /// Takes the rest of the message, its segments moved over.
  void payload(Payload& p) {
    const auto n = get<std::uint64_t>();
    p.head.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.end());
    p.segments.clear();
    for (; next_ < segments_.size(); ++next_) {
      Payload::Segment& s = segments_[next_];
      if (s.offset < pos_ || s.offset > buf_.size()) {
        detail::malformed("a segment at byte ", s.offset,
                          " lies outside bytes ", pos_, "..", buf_.size());
      }
      p.segments.push_back({s.offset - pos_, std::move(s.values)});
    }
    pos_ = buf_.size();
    if (p.size() != n) {
      detail::malformed("a nested payload of ", p.size(),
                        " bytes where its length says ", n);
    }
  }
  /// Checks the count against the smallest record before reading any, so
  /// a corrupt count throws instead of allocating.
  template <typename L>
  void list(L& l) {
    using M = typename L::value_type;
    const auto n = get<std::uint32_t>();
    const std::size_t least = std::max<std::size_t>(1, encoded_size(M{}));
    if (n > remaining() / least) {
      detail::malformed(n, " records beyond its end");
    }
    l.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      M m{};
      detail::walk(*this, m);
      l.read(std::move(m));
    }
  }

  void check_available(std::size_t n) const {
    // Compared against what is left, so a huge length prefix cannot wrap.
    NOWLB_CHECK(n <= remaining(), "payload truncated: need "
                                      << n << " bytes, have " << remaining());
  }
  void extract(void* p, std::size_t n) {
    check_available(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  const Bytes& buf_;
  std::span<Payload::Segment> segments_;
  std::size_t pos_ = 0;
  std::size_t next_ = 0;  // the next segment to take
};

namespace detail {

// A whole-payload read ends with nothing left: bytes left over (an unknown
// trailer marker, a trailer out of order, trailing garbage) and a segment
// no owned field took are errors.
inline void expect_done(const Reader& r) {
  if (r.done()) return;
  if (r.remaining() > 0) malformed(r.remaining(), " bytes left over");
  malformed(r.segments_left(), " segment(s) left unread");
}

}  // namespace detail

/// Encode `v` into one payload, its head sized before it is written.
/// Writing a RecordList tells its owner each record is written (see
/// RecordList), and writing an Owned field empties it.
template <typename T>
Payload encode(const T& v) {
  Sizer s;
  s(const_cast<T&>(v));  // the sizer only reads
  Writer w(s.head_size());
  w(const_cast<T&>(v));  // only a RecordList's owner and Owned fields change
  return w.take_payload();
}

/// Decode a whole payload into `v`: a Payload, whose segments are taken,
/// or plain Bytes.
template <typename P, typename T>
void decode(P& payload, T& v) {
  Reader r(payload);
  r(v);
  detail::expect_done(r);
}

/// Decode a whole payload into a new T.
template <typename T, typename P>
T decode(P&& payload) {
  T v{};
  decode(payload, v);
  return v;
}

}  // namespace nowlb::msg
