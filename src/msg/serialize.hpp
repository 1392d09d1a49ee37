// Byte-archive serialization for message payloads.
//
// Writer appends fields to a flat byte buffer; Reader extracts them in the
// same order, bounds-checked so a malformed or misrouted message throws
// instead of reading garbage. Only trivially copyable value types, strings,
// and vectors thereof are supported — protocol structs compose these.
#pragma once

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace nowlb::msg {

using Bytes = nowlb::Bytes;

class Writer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put(const T& v) {
    append(&v, sizeof(T));
    return *this;
  }

  Writer& put(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put_vec(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
    return *this;
  }

  Writer& put_bytes(const Bytes& b) {
    put<std::uint64_t>(b.size());
    append(b.data(), b.size());
    return *this;
  }

  /// Pre-size the buffer when the caller knows the encoded size (or a good
  /// bound) up front, avoiding growth reallocations on the hot path.
  Writer& reserve(std::size_t n) {
    buf_.reserve(buf_.size() + n);
    return *this;
  }

  std::size_t size() const { return buf_.size(); }
  Bytes take() { return std::move(buf_); }

 private:
  void append(const void* p, std::size_t n) {
    const auto old = buf_.size();
    buf_.resize(old + n);
    if (n) std::memcpy(buf_.data() + old, p, n);
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

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    check_available(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
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

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
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

/// Serialize-then-send convenience: any struct with `void encode(Writer&)`.
template <typename T>
concept Encodable = requires(const T& t, Writer& w) { t.encode(w); };

/// Decode convenience: any struct with `static T decode(Reader&)`.
template <typename T>
concept Decodable = requires(Reader& r) {
  { T::decode(r) } -> std::same_as<T>;
};

template <Encodable T>
Bytes encode(const T& value) {
  Writer w;
  value.encode(w);
  return w.take();
}

/// encode() with a pre-sized buffer; pair with the struct's encoded_size().
template <Encodable T>
Bytes encode(const T& value, std::size_t size_hint) {
  Writer w;
  w.reserve(size_hint);
  value.encode(w);
  return w.take();
}

template <Decodable T>
T decode(const Bytes& payload) {
  Reader r(payload);
  T v = T::decode(r);
  return v;
}

}  // namespace nowlb::msg
