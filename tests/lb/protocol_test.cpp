// Wire-format tests for the lb messages: the fault-tolerance trailer adds
// no bytes when off, and an unknown marker or a repeated trailer is
// rejected; and literal byte pins for every lb payload and the slice
// payload.
#include "lb/protocol.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "data/dist_array.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::lb {
namespace {

StatusReport sample_report() {
  StatusReport s;
  s.round = 12;
  s.units_done = 34.5;
  s.elapsed_s = 1.75;
  s.remaining = 99;
  s.lb_blocked_s = 0.002;
  s.move_time_s = 0.125;
  s.moved_units = 8;
  return s;
}

Instructions sample_instr() {
  Instructions ins;
  ins.round = 3;
  ins.units_until_next = 17.25;
  ins.orders = {{2, 5, 1}, {0, 3, 0}};
  return ins;
}

// With the trailer off, its fields are not encoded, whatever they hold.
TEST(FtTrailer, OffMeansNoTrailerBytes) {
  const StatusReport classic = sample_report();
  StatusReport stale = sample_report();
  stale.inventory = {7};  // never encoded while ft == 0
  EXPECT_EQ(msg::encode(classic), msg::encode(stale));

  const Instructions classic_ins = sample_instr();
  Instructions stale_ins = sample_instr();
  stale_ins.evicted = {4};
  stale_ins.adopt = {5};
  EXPECT_EQ(msg::encode(classic_ins), msg::encode(stale_ins));
}

// Decoding is strict: a marker no trailer declares is a byte left over.
TEST(FtTrailer, UnknownMarkerIsRejected) {
  StatusReport s = sample_report();
  auto b = msg::encode(s).flatten();
  b.push_back(std::byte{99});  // no such trailer
  EXPECT_THROW(msg::decode<StatusReport>(b), CheckFailure);

  Instructions ins = sample_instr();
  auto bi = msg::encode(ins).flatten();
  bi.push_back(std::byte{99});
  EXPECT_THROW(msg::decode<Instructions>(bi), CheckFailure);

  auto bi2 = msg::encode(ins).flatten();
  bi2.insert(bi2.end(), {std::byte{2}, std::byte{5}, std::byte{0},
                         std::byte{0}, std::byte{0}});
  EXPECT_THROW(msg::decode<Instructions>(bi2), CheckFailure);
}

// A trailer is read once, in declaration order: a second ft trailer is
// left over and rejected.
TEST(FtTrailer, RepeatedTrailerIsRejected) {
  StatusReport ft_only = sample_report();
  ft_only.ft = 1;
  ft_only.inventory = {4};
  const auto fixed = msg::encode(sample_report()).flatten();
  auto twice = msg::encode(ft_only).flatten();
  const auto trailer = twice;
  twice.insert(twice.end(),
               trailer.begin() + static_cast<std::ptrdiff_t>(fixed.size()),
               trailer.end());
  EXPECT_THROW(msg::decode<StatusReport>(twice), CheckFailure);
}

// ---- wire-byte pins ----
//
// Message sizes feed the simulated transfer times, so the bytes of every
// payload are part of the reproduced schedule. Each entry encodes a sample,
// compares its flattened bytes with literal ones, then decodes the payload
// and checks every field.

StatusReport pin_report(bool ft) {
  StatusReport s = sample_report();
  s.done = 1;
  if (ft) {
    s.ft = 1;
    s.inventory = {4, 9, 13};
  }
  return s;
}

Instructions pin_instr(bool ft) {
  Instructions ins = sample_instr();
  ins.phase_done = 1;
  if (ft) {
    ins.ft = 1;
    ins.evicted = {1};
    ins.adopt = {17, 18};
  }
  return ins;
}

void expect_report(const StatusReport& got, const StatusReport& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.units_done, want.units_done);
  EXPECT_EQ(got.elapsed_s, want.elapsed_s);
  EXPECT_EQ(got.remaining, want.remaining);
  EXPECT_EQ(got.lb_blocked_s, want.lb_blocked_s);
  EXPECT_EQ(got.move_time_s, want.move_time_s);
  EXPECT_EQ(got.moved_units, want.moved_units);
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(got.ft, want.ft);
  EXPECT_EQ(got.inventory, want.inventory);
}

void expect_order(const MoveOrder& got, const MoveOrder& want) {
  EXPECT_EQ(got.peer_rank, want.peer_rank);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.is_send, want.is_send);
}

void expect_instr(const Instructions& got, const Instructions& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.phase_done, want.phase_done);
  EXPECT_EQ(got.units_until_next, want.units_until_next);
  ASSERT_EQ(got.orders.size(), want.orders.size());
  for (std::size_t i = 0; i < want.orders.size(); ++i) {
    expect_order(got.orders[i], want.orders[i]);
  }
  EXPECT_EQ(got.ft, want.ft);
  EXPECT_EQ(got.evicted, want.evicted);
  EXPECT_EQ(got.adopt, want.adopt);
}

// Slice 7 {1.5, -2.0} at marker 3 and slice 8 {0.25, 4.0} at marker 2.
data::DistArray<double> pin_slices() {
  data::DistArray<double> a(2);
  a.add(7, {1.5, -2.0}, 3);
  a.add(8, {0.25, 4.0}, 2);
  return a;
}

sim::Bytes from_hex(const std::string& hex) {
  std::string digits;
  for (char c : hex) {
    if (c != ' ') digits.push_back(c);
  }
  sim::Bytes out;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoul(digits.substr(i, 2), nullptr, 16)));
  }
  return out;
}

struct WirePin {
  std::string name;
  std::function<sim::Payload()> encode;
  std::string hex;
  std::function<void(sim::Payload&)> check;
};

const std::string kReportHex =
    "0c000000 0000000000404140 000000000000fc3f 63000000 "
    "fca9f1d24d62603f 000000000000c03f 08000000 01";
const std::string kReportFtHex =
    " 01 0300000000000000 04000000 09000000 0d000000";
const std::string kInstrHex =
    "03000000 01 0000000000403140 02000000 02000000 05000000 01 "
    "00000000 03000000 00";
const std::string kInstrFtHex =
    " 01 0100000000000000 01000000 0200000000000000 11000000 12000000";

std::vector<WirePin> wire_pins() {
  std::vector<WirePin> pins;
  for (const bool ft : {false, true}) {
    const std::string suffix = ft ? "+ft" : "";
    const StatusReport rep = pin_report(ft);
    pins.push_back({"StatusReport" + suffix,
                    [rep] { return msg::encode(rep); },
                    kReportHex + (ft ? kReportFtHex : ""),
                    [rep](sim::Payload& p) {
                      expect_report(msg::decode<StatusReport>(p), rep);
                    }});
    const Instructions ins = pin_instr(ft);
    pins.push_back({"Instructions" + suffix,
                    [ins] { return msg::encode(ins); },
                    kInstrHex + (ft ? kInstrFtHex : ""),
                    [ins](sim::Payload& p) {
                      expect_instr(msg::decode<Instructions>(p), ins);
                    }});
  }
  const MoveOrder order{2, 5, 1};
  pins.push_back({"MoveOrder", [order] { return msg::encode(order); },
                  "02000000 05000000 01", [order](sim::Payload& p) {
                    expect_order(msg::decode<MoveOrder>(p), order);
                  }});
  pins.push_back(
      {"DistArray slices",
       [] { return pin_slices().pack_and_remove({7, 8}); },
       "02000000 07000000 03000000 0200000000000000 000000000000f83f "
       "00000000000000c0 08000000 02000000 0200000000000000 "
       "000000000000d03f 0000000000001040",
       [](sim::Payload& p) {
         data::DistArray<double> dst(2);
         EXPECT_EQ(dst.unpack_and_add(std::move(p)),
                   (std::vector<data::SliceId>{7, 8}));
         const data::DistArray<double> want = pin_slices();
         for (const data::SliceId id : {7, 8}) {
           EXPECT_EQ(dst.marker(id), want.marker(id));
           EXPECT_EQ(dst.slice(id), want.slice(id));
         }
       }});
  return pins;
}

// The ft trailer's marker is the byte 1, so an ft payload reads as a
// flag-then-fields layout.
TEST(WireBytes, EveryPayloadMatchesItsPinnedBytes) {
  const std::vector<WirePin> pins = wire_pins();
  ASSERT_EQ(pins.size(), 6u);
  for (const WirePin& pin : pins) {
    const sim::Bytes want = from_hex(pin.hex);
    SCOPED_TRACE(pin.name + " (" + std::to_string(want.size()) +
                 " B)");
    sim::Payload got = pin.encode();
    EXPECT_EQ(got.flatten(), want);
    pin.check(got);
  }
}

}  // namespace
}  // namespace nowlb::lb
