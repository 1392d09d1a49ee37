#include "msg/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "lb/protocol.hpp"
#include "util/rng.hpp"

namespace nowlb::msg {
namespace {

using nowlb::Rng;

TEST(Serialize, PodRoundtrip) {
  Writer w;
  w.put<std::int32_t>(-7).put<double>(3.25).put<std::uint8_t>(255);
  Bytes b = w.take();
  Reader r(b);
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundtrip) {
  Writer w;
  std::vector<double> v{1.5, -2.5, 0.0};
  w.put_vec(v);
  w.put_vec(std::vector<int>{});
  Bytes b = w.take();
  Reader r(b);
  EXPECT_EQ(r.get_vec<double>(), v);
  EXPECT_TRUE(r.get_vec<int>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, NestedBytes) {
  Writer inner;
  inner.put<int>(42);
  Writer outer;
  outer.put_bytes(inner.take());
  Bytes b = outer.take();
  Reader r(b);
  Bytes extracted = r.get_bytes();
  Reader r2(extracted);
  EXPECT_EQ(r2.get<int>(), 42);
}

TEST(Serialize, TruncatedPayloadThrows) {
  Writer w;
  w.put<std::int64_t>(1);
  Bytes b = w.take();
  b.resize(4);  // cut in half
  Reader r(b);
  EXPECT_THROW(r.get<std::int64_t>(), CheckFailure);
}

// decode() reads a whole payload: a byte left over is an error, not ignored.
TEST(Serialize, TrailingBytesThrow) {
  const lb::MoveOrder m{2, 5, 1};
  Bytes b = encode(m).flatten();
  b.push_back(std::byte{0});
  EXPECT_THROW(decode<lb::MoveOrder>(b), CheckFailure);
  b.pop_back();
  EXPECT_EQ(decode<lb::MoveOrder>(b).count, 5);
}

// A length prefix near 2^64 must not wrap the bounds check: it throws the
// reader's CheckFailure, not std::length_error from the vector it sizes.
TEST(Serialize, HugeBytesLengthThrows) {
  Writer w;
  w.put<std::uint64_t>(std::numeric_limits<std::uint64_t>::max());
  w.put<std::uint64_t>(0);  // something left to read
  Bytes b = w.take();
  Reader r(b);
  EXPECT_THROW(r.get_bytes(), CheckFailure);
}

TEST(Serialize, HugeVectorLengthThrows) {
  Writer w;
  w.put<std::uint64_t>((std::uint64_t{1} << 61) + 1);  // * 8 bytes wraps to 8
  w.put<double>(1.0);
  Bytes b = w.take();
  Reader r(b);
  EXPECT_THROW(r.get_vec<double>(), CheckFailure);
}

TEST(Serialize, TruncatedVectorThrows) {
  Writer w;
  w.put_vec(std::vector<double>{1, 2, 3});
  Bytes b = w.take();
  b.resize(b.size() - 8);
  Reader r(b);
  EXPECT_THROW(r.get_vec<double>(), CheckFailure);
}

TEST(Serialize, StatusReportRoundtrip) {
  lb::StatusReport s;
  s.round = 12;
  s.units_done = 34.5;
  s.elapsed_s = 1.75;
  s.remaining = 99;
  s.lb_blocked_s = 0.002;
  s.move_time_s = 0.125;
  s.moved_units = 8;
  auto b = encode(s);
  auto out = decode<lb::StatusReport>(b);
  EXPECT_EQ(out.round, 12);
  EXPECT_DOUBLE_EQ(out.units_done, 34.5);
  EXPECT_DOUBLE_EQ(out.elapsed_s, 1.75);
  EXPECT_EQ(out.remaining, 99);
  EXPECT_DOUBLE_EQ(out.lb_blocked_s, 0.002);
  EXPECT_DOUBLE_EQ(out.move_time_s, 0.125);
  EXPECT_EQ(out.moved_units, 8);
}

TEST(Serialize, InstructionsRoundtrip) {
  lb::Instructions ins;
  ins.round = 3;
  ins.phase_done = 1;
  ins.units_until_next = 17.25;
  ins.orders = {{2, 5, 1}, {0, 3, 0}};
  auto b = encode(ins);
  auto out = decode<lb::Instructions>(b);
  EXPECT_EQ(out.round, 3);
  EXPECT_EQ(out.phase_done, 1);
  EXPECT_DOUBLE_EQ(out.units_until_next, 17.25);
  ASSERT_EQ(out.orders.size(), 2u);
  EXPECT_EQ(out.orders[0].peer_rank, 2);
  EXPECT_EQ(out.orders[0].count, 5);
  EXPECT_EQ(out.orders[0].is_send, 1);
  EXPECT_EQ(out.orders[1].peer_rank, 0);
  EXPECT_EQ(out.orders[1].is_send, 0);
}

// ---- randomized round-trip properties over every protocol message ----

double random_double(Rng& rng) {
  // Mix ordinary magnitudes with exact-bit-pattern extremes (the wire
  // format must preserve doubles bit-for-bit, not just approximately).
  switch (rng.below(4)) {
    case 0:
      return rng.uniform(-1e6, 1e6);
    case 1:
      return rng.uniform(-1e-300, 1e-300);  // subnormal territory
    case 2:
      return std::numeric_limits<double>::max() * rng.uniform(-1.0, 1.0);
    default:
      return static_cast<double>(rng.next_u64()) * 1e-3;
  }
}

std::int32_t random_i32(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return static_cast<std::int32_t>(rng.below(1000));
    case 1:
      return std::numeric_limits<std::int32_t>::max() -
             static_cast<std::int32_t>(rng.below(2));
    default:
      return std::numeric_limits<std::int32_t>::min() +
             static_cast<std::int32_t>(rng.below(2));
  }
}

TEST(Serialize, StatusReportRandomizedRoundtrip) {
  Rng rng(101);
  for (int iter = 0; iter < 500; ++iter) {
    lb::StatusReport s;
    s.round = random_i32(rng);
    s.units_done = random_double(rng);
    s.elapsed_s = random_double(rng);
    s.remaining = random_i32(rng);
    s.lb_blocked_s = random_double(rng);
    s.move_time_s = random_double(rng);
    s.moved_units = random_i32(rng);
    s.done = static_cast<std::uint8_t>(rng.below(256));
    const auto out = decode<lb::StatusReport>(encode(s));
    EXPECT_EQ(out.round, s.round);
    EXPECT_EQ(out.units_done, s.units_done);
    EXPECT_EQ(out.elapsed_s, s.elapsed_s);
    EXPECT_EQ(out.remaining, s.remaining);
    EXPECT_EQ(out.lb_blocked_s, s.lb_blocked_s);
    EXPECT_EQ(out.move_time_s, s.move_time_s);
    EXPECT_EQ(out.moved_units, s.moved_units);
    EXPECT_EQ(out.done, s.done);
  }
}

TEST(Serialize, MoveOrderRandomizedRoundtrip) {
  Rng rng(102);
  for (int iter = 0; iter < 500; ++iter) {
    lb::MoveOrder m;
    m.peer_rank = random_i32(rng);
    m.count = random_i32(rng);
    m.is_send = static_cast<std::uint8_t>(rng.below(256));
    const auto out = decode<lb::MoveOrder>(encode(m));
    EXPECT_EQ(out.peer_rank, m.peer_rank);
    EXPECT_EQ(out.count, m.count);
    EXPECT_EQ(out.is_send, m.is_send);
  }
}

TEST(Serialize, InstructionsRandomizedRoundtrip) {
  Rng rng(103);
  for (int iter = 0; iter < 300; ++iter) {
    lb::Instructions ins;
    ins.round = random_i32(rng);
    ins.phase_done = static_cast<std::uint8_t>(rng.below(2));
    ins.units_until_next = random_double(rng);
    const int norders = static_cast<int>(rng.below(17));  // includes empty
    for (int i = 0; i < norders; ++i) {
      ins.orders.push_back({random_i32(rng), random_i32(rng),
                            static_cast<std::uint8_t>(rng.below(2))});
    }
    const auto out = decode<lb::Instructions>(encode(ins));
    EXPECT_EQ(out.round, ins.round);
    EXPECT_EQ(out.phase_done, ins.phase_done);
    EXPECT_EQ(out.units_until_next, ins.units_until_next);
    ASSERT_EQ(out.orders.size(), ins.orders.size());
    for (std::size_t i = 0; i < ins.orders.size(); ++i) {
      EXPECT_EQ(out.orders[i].peer_rank, ins.orders[i].peer_rank);
      EXPECT_EQ(out.orders[i].count, ins.orders[i].count);
      EXPECT_EQ(out.orders[i].is_send, ins.orders[i].is_send);
    }
  }
}

// ---- owned fields: values that travel as payload segments ----

// Two moved columns behind a header, as a work transfer carries them.
struct TwoColumns {
  std::int32_t header = 0;
  Owned<> first;
  std::int32_t between = 0;
  Owned<> second;
  template <class A> void fields(A& a) { a(header, first, between, second); }
};

TwoColumns two_columns() {
  return {7, {{1.5, -2.0, 3.0}}, 9, {{0.25}}};
}

// Runs `f`, which must throw a CheckFailure whose text names `fault`.
template <class F>
void expect_fault(F f, const std::string& fault) {
  try {
    f();
    ADD_FAILURE() << "no CheckFailure; expected one naming \"" << fault
                  << "\"";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(fault), std::string::npos)
        << e.what();
  }
}

// An owned field is written as a vector is: its flattened bytes are the
// plain layout, but its values sit in a segment and the head, allocated
// once at its own size, holds only the counts around them.
TEST(Owned, FlattensToTheVectorLayoutAndHandsTheValuesOver) {
  TwoColumns m = two_columns();
  const double* first = m.first.values.data();
  Payload p = encode(m);
  EXPECT_TRUE(m.first.values.empty());  // handed over, not copied
  ASSERT_EQ(p.segments.size(), 2u);
  EXPECT_EQ(p.segments[0].values.data(), first);
  EXPECT_EQ(p.segments[0].offset, 4u + 8u);
  EXPECT_EQ(p.segments[1].offset, 4u + 8u + 4u + 8u);
  EXPECT_EQ(p.head.size(), 4u + 8u + 4u + 8u);
  EXPECT_EQ(p.head.capacity(), p.head.size());

  Writer w;
  w.put<std::int32_t>(7).put_vec(std::vector<double>{1.5, -2.0, 3.0});
  w.put<std::int32_t>(9).put_vec(std::vector<double>{0.25});
  const Bytes plain = w.take();
  EXPECT_EQ(p.flatten(), plain);
  EXPECT_EQ(p.size(), plain.size());
  EXPECT_EQ(encoded_size(two_columns()), plain.size());

  const TwoColumns back = decode<TwoColumns>(p);
  EXPECT_EQ(back.first.values.data(), first);  // taken back, not copied
  EXPECT_EQ(back.first.values, (std::vector<double>{1.5, -2.0, 3.0}));
  EXPECT_EQ(back.between, 9);
  EXPECT_EQ(back.second.values, (std::vector<double>{0.25}));
}

TEST(Owned, DecodeRejectsAMissingSegment) {
  Payload p = encode(two_columns());
  p.segments.pop_back();
  expect_fault([&] { decode<TwoColumns>(p); },
               "no segment holds the 1 values counted before byte 24");
  // The flattened bytes alone carry no segment at all.
  const Bytes flat = encode(two_columns()).flatten();
  expect_fault([&] { decode<TwoColumns>(flat); },
               "no segment holds the 3 values counted before byte 12");
}

TEST(Owned, DecodeRejectsASegmentOfTheWrongLength) {
  Payload p = encode(two_columns());
  p.segments[1].values.push_back(5.0);
  expect_fault([&] { decode<TwoColumns>(p); },
               "a segment of 2 values where its count says 1");
}

TEST(Owned, DecodeRejectsASegmentLeftUnread) {
  Payload p = encode(two_columns());
  p.segments.push_back({p.head.size(), {4.0}});
  expect_fault([&] { decode<TwoColumns>(p); }, "1 segment(s) left unread");
}

TEST(Owned, WriterTakeRefusesToDropSegments) {
  Writer w;
  TwoColumns m = two_columns();
  w(m);
  expect_fault([&] { w.take(); }, "take() would drop 2 segment(s)");
}

// A payload nested as the last field (the transport's envelope) keeps its
// segments, their offsets shifted past the fields in front of it.
struct Framed {
  std::uint32_t seq = 0;
  Payload inner;
  template <class A> void fields(A& a) { a(seq, inner); }
};

TEST(Owned, ANestedPayloadCarriesItsSegments) {
  const Payload inner = encode(two_columns());
  Payload framed = encode(Framed{3, inner});
  ASSERT_EQ(framed.segments.size(), 2u);
  EXPECT_EQ(framed.segments[0].offset, 4u + 8u + inner.segments[0].offset);
  Writer w;
  w.put<std::uint32_t>(3).put_bytes(inner.flatten());
  EXPECT_EQ(framed.flatten(), w.take());

  const Framed back = decode<Framed>(framed);
  EXPECT_EQ(back.seq, 3u);
  EXPECT_EQ(back.inner, inner);
}

}  // namespace
}  // namespace nowlb::msg
