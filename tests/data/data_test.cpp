#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "data/dist_array.hpp"
#include "data/ownership.hpp"
#include "data/slice.hpp"
#include "util/rng.hpp"

namespace nowlb::data {
namespace {

// Runs `f`, which must throw a CheckFailure whose text names `fault`: a
// malformed payload can fail several checks, and each test is about one.
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

// ------------------------------------------------------------- BlockMap

// A failed check names its source file relative to src/, whichever
// directory the checkout sits in.
TEST(BlockMap, FailedCheckNamesItsFileFromSrc) {
  expect_fault([] { (void)BlockMap::even(4, 0); }, " at data/slice.cpp:");
}

TEST(BlockMap, EvenDistributionSplitsRemainder) {
  auto m = BlockMap::even(10, 3);
  EXPECT_EQ(m.counts(), (std::vector<int>{4, 3, 3}));
  EXPECT_EQ(m.total(), 10);
  EXPECT_EQ(m.range(0), (SliceRange{0, 4}));
  EXPECT_EQ(m.range(2), (SliceRange{7, 10}));
}

TEST(BlockMap, OwnerLookup) {
  auto m = BlockMap::from_counts({2, 0, 3});
  EXPECT_EQ(m.owner(0), 0);
  EXPECT_EQ(m.owner(1), 0);
  EXPECT_EQ(m.owner(2), 2);  // rank 1 owns nothing
  EXPECT_EQ(m.owner(4), 2);
  EXPECT_THROW(m.owner(5), CheckFailure);
  EXPECT_THROW(m.owner(-1), CheckFailure);
}

TEST(BlockMap, EmptyRanksAllowed) {
  auto m = BlockMap::from_counts({0, 5, 0});
  EXPECT_EQ(m.count(0), 0);
  EXPECT_EQ(m.count(1), 5);
  EXPECT_EQ(m.range(2).count(), 0);
}

class BlockMapEvenProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlockMapEvenProperty, PartitionInvariants) {
  const auto [total, slaves] = GetParam();
  auto m = BlockMap::even(total, slaves);
  // Counts sum to total and differ by at most one.
  int sum = 0, lo = total, hi = 0;
  for (int c : m.counts()) {
    sum += c;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_EQ(sum, total);
  EXPECT_LE(hi - lo, 1);
  // Every slice has exactly one owner and lies in that owner's range.
  for (SliceId s = 0; s < total; ++s) {
    const int r = m.owner(s);
    EXPECT_TRUE(m.range(r).contains(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockMapEvenProperty,
    ::testing::Values(std::pair{0, 1}, std::pair{1, 1}, std::pair{1, 7},
                      std::pair{7, 7}, std::pair{500, 7}, std::pair{2000, 6},
                      std::pair{13, 5}, std::pair{100, 3}));

// ------------------------------------------------------------ DistArray

TEST(DistArray, AddRemoveAccess) {
  DistArray<double> a(4);
  a.add(7, {1, 2, 3, 4});
  EXPECT_TRUE(a.owns(7));
  EXPECT_FALSE(a.owns(8));
  a.slice(7)[2] = 99;
  auto [contents, marker] = a.remove(7);
  EXPECT_EQ(contents, (std::vector<double>{1, 2, 99, 4}));
  EXPECT_EQ(marker, 0);
  EXPECT_FALSE(a.owns(7));
}

TEST(DistArray, WrongLengthThrows) {
  DistArray<double> a(4);
  EXPECT_THROW(a.add(0, {1, 2}), CheckFailure);
}

TEST(DistArray, DuplicateAddThrows) {
  DistArray<double> a(2);
  a.add(0, {1, 2});
  EXPECT_THROW(a.add(0, {3, 4}), CheckFailure);
}

TEST(DistArray, AccessMissingThrows) {
  DistArray<double> a(2);
  EXPECT_THROW(a.slice(5), CheckFailure);
  EXPECT_THROW(a.remove(5), CheckFailure);
  EXPECT_THROW(a.marker(5), CheckFailure);
}

TEST(DistArray, MarkersSurvivePackUnpack) {
  DistArray<double> src(3), dst(3);
  src.add(1, {1, 1, 1}, /*marker=*/5);
  src.add(2, {2, 2, 2}, /*marker=*/6);
  src.add(3, {3, 3, 3});
  auto payload = src.pack_and_remove({1, 3});
  EXPECT_FALSE(src.owns(1));
  EXPECT_FALSE(src.owns(3));
  EXPECT_TRUE(src.owns(2));
  auto ids = dst.unpack_and_add(std::move(payload));
  EXPECT_EQ(ids, (std::vector<SliceId>{1, 3}));
  EXPECT_EQ(dst.marker(1), 5);
  EXPECT_EQ(dst.marker(3), 0);
  EXPECT_EQ(dst.slice(3), (std::vector<double>{3, 3, 3}));
}

TEST(DistArray, EmptyPackRoundtrip) {
  DistArray<double> src(2), dst(2);
  auto payload = src.pack_and_remove({});
  EXPECT_TRUE(dst.unpack_and_add(std::move(payload)).empty());
}

// A moved slice's vector travels in the payload: the receiver holds the
// very buffer the sender did, for every slice of the move.
TEST(DistArray, MovedSlicesKeepTheirBuffers) {
  DistArray<double> src(3), dst(3);
  std::vector<const double*> before;
  for (SliceId id = 0; id < 4; ++id) {
    src.add(id, {id + 0.5, 1.0, 2.0}, id);
    before.push_back(src.slice(id).data());
  }
  auto payload = src.pack_and_remove({0, 1, 2, 3});
  EXPECT_EQ(dst.unpack_and_add(std::move(payload)),
            (std::vector<SliceId>{0, 1, 2, 3}));
  for (SliceId id = 0; id < 4; ++id) {
    EXPECT_EQ(dst.slice(id).data(), before[static_cast<std::size_t>(id)])
        << "slice " << id << " was copied";
    EXPECT_EQ(dst.slice(id), (std::vector<double>{id + 0.5, 1.0, 2.0}));
  }
}

TEST(DistArray, OwnedIdsSorted) {
  DistArray<int> a(1);
  a.add(5, {0});
  a.add(1, {0});
  a.add(3, {0});
  EXPECT_EQ(a.owned_ids(), (std::vector<SliceId>{1, 3, 5}));
}

TEST(DistArray, LowestHighestOnEmptyThrow) {
  DistArray<double> a(1);
  EXPECT_THROW(a.lowest_id(), CheckFailure);
  EXPECT_THROW(a.highest_id(), CheckFailure);
  a.add(4, {0});
  a.add(2, {0});
  EXPECT_EQ(a.lowest_id(), 2);
  EXPECT_EQ(a.highest_id(), 4);
}

// Columns 10..14 with markers 5,5,3,3,3: the shape SOR's strip loop keeps.
DistArray<double> staircase() {
  DistArray<double> a(2);
  const int markers[] = {5, 5, 3, 3, 3};
  for (int i = 0; i < 5; ++i) {
    a.add(10 + i, {static_cast<double>(i), -1.0}, markers[i]);
  }
  return a;
}

std::vector<int> markers_of(const DistArray<double>& a) {
  std::vector<int> out;
  for (SliceId id : a.owned_ids()) out.push_back(a.marker(id));
  return out;
}

TEST(DistArray, TopRunStopsAtFirstFailingMarker) {
  const auto a = staircase();
  EXPECT_EQ(a.top_below(4), 3);  // the top run at the minimum marker, 3
  EXPECT_EQ(a.top_below(5), 3);
  EXPECT_EQ(a.top_below(6), 5);
  EXPECT_EQ(a.top_below(3), 0);
  EXPECT_EQ(DistArray<double>(2).top_below(1), 0);
}

TEST(DistArray, SetMarkersFromUpdatesOnlyIdsAtOrAbove) {
  auto a = staircase();
  a.set_markers_from(12, 4);
  EXPECT_EQ(markers_of(a), (std::vector<int>{5, 5, 4, 4, 4}));
  a.set_markers_from(14, 5);
  EXPECT_EQ(markers_of(a), (std::vector<int>{5, 5, 4, 4, 5}));
  a.set_markers_from(a.lowest_id(), 0);
  EXPECT_EQ(markers_of(a), (std::vector<int>{0, 0, 0, 0, 0}));
  a.set_markers_from(15, 9);  // above every id: no-op
  EXPECT_EQ(markers_of(a), (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(DistArray, StaircaseRejectsRisingMarkersAndGaps) {
  EXPECT_TRUE(staircase().is_staircase());
  EXPECT_TRUE(DistArray<double>(2).is_staircase());

  auto rising = staircase();
  rising.set_markers_from(14, 4);  // 5,5,3,3,4
  EXPECT_FALSE(rising.is_staircase());

  DistArray<double> increasing(1);
  increasing.add(1, {0}, 3);
  increasing.add(2, {0}, 3);
  increasing.add(3, {0}, 5);
  EXPECT_FALSE(increasing.is_staircase());

  auto gap = staircase();
  gap.remove(12);
  EXPECT_FALSE(gap.is_staircase());
}

// A message that carries a slice list behind a header, as SOR's moves do.
struct Headed {
  std::uint8_t header = 0;
  DistArray<double>::Moving slices;

  template <class A>
  void fields(A& a) {
    a(header, slices);
  }
};

TEST(DistArray, PackIntoWriterAppendsExactlyThePayload) {
  auto a = staircase();
  auto b = staircase();
  const std::vector<SliceId> ids = {12, 13, 14};
  const Bytes expected = a.pack_and_remove(ids).flatten();

  const Headed h{0xAB, DistArray<double>::Moving(b, ids)};
  EXPECT_EQ(msg::encoded_size(h.slices), expected.size());
  const Bytes got = msg::encode(h).flatten();  // removes each slice
  ASSERT_EQ(got.size(), 1 + expected.size());
  EXPECT_EQ(got[0], std::byte{0xAB});
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin() + 1));
  EXPECT_EQ(b.owned_ids(), (std::vector<SliceId>{10, 11}));
  EXPECT_EQ(msg::encoded_size(DistArray<double>::Moving(b)),
            sizeof(std::uint32_t));
}

TEST(DistArray, UnpackFromReaderRestoresSlicesAndConsumesPayload) {
  auto src = staircase();
  msg::Payload payload =
      msg::encode(Headed{0xAB, DistArray<double>::Moving(src, {12, 13, 14})});

  DistArray<double> dst(2);
  Headed h{0, DistArray<double>::Moving(dst)};
  msg::decode(payload, h);  // throws unless fully consumed
  EXPECT_EQ(h.header, 0xAB);
  EXPECT_EQ(h.slices.ids(), (std::vector<SliceId>{12, 13, 14}));
  EXPECT_EQ(markers_of(dst), (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(dst.slice(13), (std::vector<double>{3.0, -1.0}));
}

TEST(DistArray, UnpackBytesRejectsTrailingBytes) {
  auto src = staircase();
  msg::Payload payload = src.pack_and_remove({10});
  payload.head.push_back(std::byte{0});
  DistArray<double> dst(2);
  expect_fault([&] { dst.unpack_and_add(std::move(payload)); },
               "1 bytes left over");
}

TEST(DistArray, UnpackRejectsSliceCountBeyondPayload) {
  msg::Payload payload =
      msg::encode(std::numeric_limits<std::uint32_t>::max());
  DistArray<double> dst(2);
  expect_fault([&] { dst.unpack_and_add(std::move(payload)); },
               "4294967295 records beyond its end");
}

// ------------------------------------- DistArray against an ordered map

// Every slice event an array reports, in order: '+' added, '-' removed.
struct EventLog : SliceLedger {
  std::vector<std::tuple<char, int, SliceId>> events;
  void on_slice_added(int rank, SliceId id) override {
    events.emplace_back('+', rank, id);
  }
  void on_slice_removed(int rank, SliceId id) override {
    events.emplace_back('-', rank, id);
  }
};

// The reference store: id -> (marker, contents).
using Model = std::map<SliceId, std::pair<int, std::vector<double>>>;
using Record = DistArray<double>::Record<>;

void expect_matches(const DistArray<double>& a, const Model& m) {
  std::vector<SliceId> ids;
  bool want_staircase = true;
  for (auto it = m.begin(); it != m.end(); ++it) {
    ids.push_back(it->first);
    ASSERT_TRUE(a.owns(it->first)) << it->first;
    EXPECT_EQ(a.marker(it->first), it->second.first);
    EXPECT_EQ(a.slice(it->first), it->second.second);
    if (it != m.begin()) {
      const auto lo = std::prev(it);
      want_staircase = want_staircase && it->first == lo->first + 1 &&
                       it->second.first <= lo->second.first;
    }
  }
  EXPECT_EQ(a.owned_ids(), ids);
  EXPECT_EQ(a.owned_count(), static_cast<int>(ids.size()));
  EXPECT_EQ(a.is_staircase(), want_staircase);
  if (!ids.empty()) {
    EXPECT_EQ(a.lowest_id(), ids.front());
    EXPECT_EQ(a.highest_id(), ids.back());
  }
}

// The run of highest ids whose markers are below `marker`, walked down.
int model_top_below(const Model& m, int marker) {
  int n = 0;
  for (auto it = m.rbegin(); it != m.rend() && it->second.first < marker;
       ++it) {
    ++n;
  }
  return n;
}

SliceId pick(const Model& m, Rng& rng) {
  return std::next(m.begin(), static_cast<std::ptrdiff_t>(rng.below(m.size())))
      ->first;
}

// The predicate walks against the model, for a predicate on the id (LU's
// active columns) and one on the marker (MM's pending columns), and for
// every `n` from none to more than match. `t` varies both predicates.
void expect_walks_match(const DistArray<double>& a, const Model& m, int t) {
  const auto check = [&](auto pred) {
    std::vector<SliceId> want;
    for (const auto& [id, s] : m) {
      if (pred(id, s.first)) want.push_back(id);
    }
    EXPECT_EQ(a.count_if(pred), std::ssize(want));
    EXPECT_EQ(a.first_if(pred), want.empty()
                                    ? std::nullopt
                                    : std::optional<SliceId>(want.front()));
    const int matches = static_cast<int>(want.size());
    for (const int n : {0, 1, 3, matches, matches + 2}) {
      const auto k = std::min(n, matches);
      EXPECT_EQ(a.highest_if(n, pred),
                std::vector<SliceId>(want.end() - k, want.end()))
          << "n " << n;
    }
  };
  check([t](SliceId id, int) { return id > 12 * t; });
  check([t](SliceId, int marker) { return marker == t; });
}

// Ascending ids of `m` to move: its lowest k, its highest k (SOR's ends,
// LU's top), or any subset (MM's scattered picks).
std::vector<SliceId> pick_move(const Model& m, Rng& rng) {
  std::vector<SliceId> held;
  for (const auto& [id, s] : m) held.push_back(id);
  const auto k = static_cast<std::ptrdiff_t>(rng.below(held.size() + 1));
  switch (rng.below(3)) {
    case 0:
      return {held.begin(), held.begin() + k};
    case 1:
      return {held.end() - k, held.end()};
    default: {
      std::vector<SliceId> some;
      for (SliceId id : held) {
        if (rng.below(2) == 0) some.push_back(id);
      }
      return some;
    }
  }
}

// Two ranks' arrays share one id space, so moved ids interleave with the
// receiver's. Every operation runs on the array and on its model; after
// each one they must agree, and the ledger must have seen the events the
// model predicts, in the same order.
TEST(DistArray, MatchesAnOrderedMapModel) {
  constexpr int kIds = 48;
  constexpr int kOps = 150;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    EventLog log;
    const SliceLedgerScope scope(&log);
    std::vector<std::tuple<char, int, SliceId>> want;
    DistArray<double> a[2] = {DistArray<double>(3), DistArray<double>(3)};
    Model m[2];
    a[0].enable_ownership_checks(0);
    a[1].enable_ownership_checks(1);
    Rng rng(seed);
    double serial = 0;
    for (int op = 0; op < kOps; ++op) {
      const int r = static_cast<int>(rng.below(2));
      const int marker = static_cast<int>(rng.below(4));
      switch (rng.below(8)) {
        case 0:
        case 1: {
          const auto id = static_cast<SliceId>(rng.below(kIds));
          std::vector<double> contents = {id + 0.25, ++serial, -1.0};
          if (m[r].count(id) != 0) {
            EXPECT_THROW(a[r].add(id, contents, marker), CheckFailure);
          } else if (m[1 - r].count(id) == 0) {
            a[r].add(id, contents, marker);
            m[r][id] = {marker, contents};
            want.emplace_back('+', r, id);
          }
          break;
        }
        case 2:
          if (!m[r].empty()) {
            const SliceId id = pick(m[r], rng);
            auto [contents, got_marker] = a[r].remove(id);
            EXPECT_EQ(got_marker, m[r][id].first);
            EXPECT_EQ(contents, m[r][id].second);
            m[r].erase(id);
            want.emplace_back('-', r, id);
          }
          break;
        case 3:
          if (!m[r].empty()) {
            const SliceId id = pick(m[r], rng);
            a[r].set_marker(id, marker);
            m[r][id].first = marker;
          }
          break;
        case 4: {
          const auto from = static_cast<SliceId>(rng.below(kIds + 1));
          a[r].set_markers_from(from, marker);
          for (auto it = m[r].lower_bound(from); it != m[r].end(); ++it) {
            it->second.first = marker;
          }
          break;
        }
        case 5: {
          // top_below needs markers that never rise with the id: lay a
          // staircase from a random split, then look up every threshold.
          if (m[r].empty()) break;
          const SliceId split = pick(m[r], rng);
          a[r].set_markers_from(a[r].lowest_id(), marker + 1);
          a[r].set_markers_from(split, marker);
          for (auto& [id, s] : m[r]) s.first = id < split ? marker + 1 : marker;
          for (int t = marker - 1; t <= marker + 2; ++t) {
            EXPECT_EQ(a[r].top_below(t), model_top_below(m[r], t)) << t;
          }
          break;
        }
        default: {
          const std::vector<SliceId> ids = pick_move(m[r], rng);
          std::vector<Record> records;
          for (SliceId id : ids) {
            records.push_back({id, m[r][id].first, m[r][id].second});
          }
          msg::Payload payload = a[r].pack_and_remove(ids);
          EXPECT_EQ(payload, msg::encode(records));
          EXPECT_EQ(a[1 - r].unpack_and_add(std::move(payload)), ids);
          for (SliceId id : ids) {
            m[1 - r][id] = m[r][id];
            m[r].erase(id);
            want.emplace_back('-', r, id);
          }
          for (SliceId id : ids) want.emplace_back('+', 1 - r, id);
        }
      }
      expect_matches(a[0], m[0]);
      expect_matches(a[1], m[1]);
      expect_walks_match(a[0], m[0], marker);
      expect_walks_match(a[1], m[1], marker);
      ASSERT_EQ(log.events, want) << "after operation " << op;
      if (HasFailure()) return;
    }
  }
}

TEST(DistArray, WriteRejectsIdsNotAscending) {
  auto a = staircase();
  EXPECT_THROW(a.pack_and_remove({12, 11}), CheckFailure);
  EXPECT_THROW(a.pack_and_remove({11, 11}), CheckFailure);
  EXPECT_THROW(DistArray<double>::Moving(a, {14, 10, 12}), CheckFailure);
  EXPECT_EQ(a.owned_ids(), (std::vector<SliceId>{10, 11, 12, 13, 14}));
}

TEST(DistArray, ReadRejectsIdsNotAscending) {
  std::vector<Record> records = {{4, 0, {{1.0, 2.0}}}, {3, 0, {{3.0, 4.0}}}};
  msg::Payload payload = msg::encode(records);  // segments, as a move sends
  ASSERT_EQ(payload.segments.size(), 2u);
  DistArray<double> dst(2);
  expect_fault([&] { dst.unpack_and_add(std::move(payload)); },
               "moved slice 3 follows slice 4");
  EXPECT_EQ(dst.owned_count(), 0);
}

TEST(DistArray, ReadRejectsAHeldIdAndKeepsTheArray) {
  EventLog log;
  const SliceLedgerScope scope(&log);
  auto src = staircase();  // 10..14
  DistArray<double> dst(2);
  dst.enable_ownership_checks(1);
  dst.add(13, {7.0, 7.0}, 1);
  dst.add(20, {8.0, 8.0}, 1);
  expect_fault([&] { dst.unpack_and_add(src.pack_and_remove({11, 12, 13})); },
               "slice 13 already present");
  EXPECT_EQ(dst.owned_ids(), (std::vector<SliceId>{13, 20}));
  EXPECT_EQ(dst.slice(13), (std::vector<double>{7.0, 7.0}));
  // Only the two set-up adds: a rejected batch reports nothing.
  EXPECT_EQ(log.events.size(), 2u);
}

// ------------------------------------------ batches find their entries

std::vector<double> contents_of(SliceId id) {
  return {static_cast<double>(id), static_cast<double>(-id)};
}

// Columns 10..19 with marker id % 4 and contents_of(id).
DistArray<double> ten() {
  DistArray<double> a(2);
  for (SliceId id = 10; id < 20; ++id) a.add(id, contents_of(id), id % 4);
  return a;
}

// A batch whose ids skip held ones, and one that takes both ends, pack
// exactly the records of those slices (sizing and writing each search
// anew), so each entry is found wherever the one before it was.
TEST(DistArray, ScatteredAndBothEndBatchesPackTheirRecords) {
  const std::vector<std::vector<SliceId>> batches = {
      {11, 13, 14, 17}, {10, 11, 18, 19}, {10, 19}, {15}};
  for (const std::vector<SliceId>& ids : batches) {
    auto a = ten();
    std::vector<Record> records;
    std::vector<SliceId> kept;
    for (SliceId id = 10; id < 20; ++id) {
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) {
        records.push_back({id, id % 4, {contents_of(id)}});
      } else {
        kept.push_back(id);
      }
    }
    EXPECT_EQ(a.pack_and_remove(ids), msg::encode(records));
    EXPECT_EQ(a.owned_ids(), kept);
  }
}

TEST(DistArray, MissingIdStillThrowsNotLocal) {
  auto a = ten();
  expect_fault([&] { a.pack_and_remove({9, 10}); }, "slice 9 not local");
  expect_fault([&] { a.pack_and_remove({12, 13, 20}); }, "slice 20 not local");
  a.remove(15);
  expect_fault([&] { a.pack_and_remove({14, 15, 16}); }, "slice 15 not local");
  // Sizing finds the missing id before any slice is taken.
  EXPECT_EQ(a.owned_count(), 9);
  EXPECT_EQ(a.slice(14), contents_of(14));
}

// A batch above the held ids is appended, one below them prepended, and
// one between them merged; each reports a removal on the sender and an
// add on the receiver per slice, in wire order.
TEST(DistArray, BatchesAboveBelowAndBetweenMergeInOrder) {
  EventLog log;
  const SliceLedgerScope scope(&log);
  auto src = ten();  // 10..19
  src.enable_ownership_checks(0);
  DistArray<double> dst(2);
  dst.enable_ownership_checks(1);
  dst.add(14, {0.5, 0.5}, 7);
  log.events.clear();

  const std::vector<std::vector<SliceId>> batches = {
      {15, 16, 18},  // above 14
      {10, 11},      // below 14
      {12, 17, 19},  // between and beyond
      {13}};         // the last gap
  std::vector<std::tuple<char, int, SliceId>> want;
  for (const std::vector<SliceId>& ids : batches) {
    EXPECT_EQ(dst.unpack_and_add(src.pack_and_remove(ids)), ids);
    for (SliceId id : ids) want.emplace_back('-', 0, id);
    for (SliceId id : ids) want.emplace_back('+', 1, id);
  }
  EXPECT_EQ(log.events, want);
  EXPECT_EQ(src.owned_ids(), (std::vector<SliceId>{14}));
  EXPECT_EQ(dst.owned_ids(),
            (std::vector<SliceId>{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}));
  for (SliceId id = 10; id < 20; ++id) {
    if (id == 14) continue;
    EXPECT_EQ(dst.marker(id), id % 4);
    EXPECT_EQ(dst.slice(id), contents_of(id));
  }
  EXPECT_EQ(dst.marker(14), 7);
  EXPECT_EQ(dst.slice(14), (std::vector<double>{0.5, 0.5}));
}

// A batch that shares only an end id with the array is no append or
// prepend: the shared id is rejected before the array changes.
TEST(DistArray, BatchMeetingAnEndRejectsTheSharedId) {
  const std::vector<std::vector<SliceId>> batches = {{14, 15}, {9, 12}};
  for (const std::vector<SliceId>& ids : batches) {
    auto src = ten();
    src.add(9, contents_of(9));
    DistArray<double> dst(2);
    dst.add(12, {1.0, 1.0});
    dst.add(14, {2.0, 2.0});
    expect_fault([&] { dst.unpack_and_add(src.pack_and_remove(ids)); },
                 "already present");
    EXPECT_EQ(dst.owned_ids(), (std::vector<SliceId>{12, 14}));
    EXPECT_EQ(dst.slice(12), (std::vector<double>{1.0, 1.0}));
  }
}

// On random staircases (empty, one run, several runs) the binary search
// counts what a walk down from the highest id counts, for thresholds
// below, at and above every marker.
TEST(DistArray, TopBelowMatchesALinearCountOnStaircases) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto n = static_cast<int>(rng.below(12));
    const auto base = static_cast<SliceId>(rng.below(50));
    int marker = static_cast<int>(rng.below(20));
    const auto drop_every = 1 + rng.below(6);  // 1: a drop at every column
    std::vector<int> markers;
    DistArray<double> a(1);
    for (int i = 0; i < n; ++i) {
      if (i > 0 && rng.below(drop_every) == 0) {
        marker -= static_cast<int>(rng.below(3));
      }
      markers.push_back(marker);
      a.add(base + i, {0.0}, marker);
    }
    ASSERT_TRUE(a.is_staircase());
    std::vector<int> thresholds = {-100, 100};
    for (int m : markers) {
      thresholds.insert(thresholds.end(), {m - 1, m, m + 1});
    }
    for (int t : thresholds) {
      int want = 0;
      for (auto it = markers.rbegin(); it != markers.rend() && *it < t; ++it) {
        ++want;
      }
      EXPECT_EQ(a.top_below(t), want) << "threshold " << t;
    }
  }
}

}  // namespace
}  // namespace nowlb::data
