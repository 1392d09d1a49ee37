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
//   - a nested message (anything with fields()): its fields;
//   - a list of messages (a std::vector of them, or a RecordList): a u32
//     count, then each message.
// `a.trailer(marker, flag, fields...)` writes the marker byte and the fields
// only when `flag` is set; the reader takes a trailer only when the next
// byte is its marker, so trailers come last, in declaration order. A
// declaration may branch on a field it has already listed. The Reader is
// bounds-checked: a malformed payload throws instead of reading garbage.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace nowlb::msg {

using Bytes = nowlb::Bytes;

class Sizer;

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

// The walkers' failure path, out of line so a check costs one branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void malformed(const char* what,
                                                           std::size_t n) {
  NOWLB_CHECK(false, "malformed payload: " << n << " " << what);
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

/// The one statement of the field kinds; each archive supplies the three
/// layouts: value(), values() (u64-counted) and list() (u32-counted).
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
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "a field is a value, a vector, or a message");
    a.value(v);
  }
}

}  // namespace detail

/// Walks a message and adds up its encoded size.
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
  std::size_t size() const { return n_; }

 private:
  template <typename A, typename T>
  friend void detail::walk(A&, T&);

  template <typename T>
  void value(const T&) { n_ += sizeof(T); }
  template <typename V>
  void values(const V& v) {
    n_ += sizeof(std::uint64_t) + v.size() * sizeof(typename V::value_type);
  }
  template <typename L>
  void list(L& l) {
    n_ += sizeof(std::uint32_t);
    for (std::size_t i = 0; i < l.size(); ++i) {
      auto&& m = l.record(i);
      detail::walk(*this, m);
    }
  }

  std::size_t n_ = 0;
};

template <typename T>
std::size_t encoded_size(const T& v) {
  Sizer s;
  s(const_cast<T&>(v));  // the sizer only reads
  return s.size();
}

class Writer {
 public:
  /// `capacity`: the encoded size, when known, so the buffer never grows.
  explicit Writer(std::size_t capacity = 0) { buf_.reserve(capacity); }

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

  Bytes take() { return std::move(buf_); }

 private:
  template <typename A, typename T>
  friend void detail::walk(A&, T&);

  template <typename T>
  void value(const T& v) { put(v); }
  template <typename V>
  void values(const V& v) {
    put_span(std::span<const typename V::value_type>(v));
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
    buf_.insert(buf_.end(), bytes, bytes + n);  // one copy, no zero-fill
  }
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

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
  bool done() const { return pos_ == buf_.size(); }

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
  /// Checks the count against the smallest record before reading any, so
  /// a corrupt count throws instead of allocating.
  template <typename L>
  void list(L& l) {
    using M = typename L::value_type;
    const auto n = get<std::uint32_t>();
    const std::size_t least = std::max<std::size_t>(1, encoded_size(M{}));
    if (n > remaining() / least) detail::malformed("records beyond its end", n);
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
  std::size_t pos_ = 0;
};

/// Encode `v` into one buffer, sized before it is written. Writing a
/// RecordList tells its owner each record is written (see RecordList).
template <typename T>
Bytes encode(const T& v) {
  Writer w(encoded_size(v));
  w(const_cast<T&>(v));  // only a RecordList's owner changes
  return w.take();
}

/// Decode a whole payload into `v`; bytes left over (an unknown trailer
/// marker, a trailer out of order, trailing garbage) are an error.
template <typename T>
void decode(const Bytes& payload, T& v) {
  Reader r(payload);
  r(v);
  if (!r.done()) detail::malformed("bytes left over", r.remaining());
}

template <typename T>
T decode(const Bytes& payload) {
  T v{};
  decode(payload, v);
  return v;
}

}  // namespace nowlb::msg
