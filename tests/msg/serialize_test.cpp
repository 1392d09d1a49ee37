#include "msg/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>

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
  Bytes b = encode(m);
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

}  // namespace
}  // namespace nowlb::msg
