// DistArray<T>: a slave's local portion of a 1-D-distributed 2-D array.
//
// The array is distributed by slices (e.g. columns); each slice is a fixed-
// length vector of T. Because load balancing moves slices at run time, the
// local portion is not a contiguous block: slices are looked up through the
// owned-index structure — the paper's "extra level of indirection" (§4.5).
// Here that index is one vector of entries sorted by id: a lookup is a
// binary search, and the walks (owned ids, the staircase check, the
// predicate walks over (id, marker)) are contiguous.
// A single add or remove shifts the entries above it; a movement payload
// adds or drops its whole batch in one pass, finding each entry from the
// one before (Moving). A reference to a slice's vector is valid until the
// next add, remove or move; a span of its elements stays valid until that
// slice itself leaves, and a moved slice takes its elements along: only
// double slices move.
//
// Each slice carries an application-defined integer `marker` that records
// how far the slice has been computed: SOR's strips and LU's steps, for the
// catch-up / set-aside reconciliation of §4.5, and MM's done flag for the
// current invocation. set_markers_from does not write its entries: it
// leaves one pending raise (every held slice from an id up reads one
// marker), which a later raise from at or below that id replaces in O(1),
// as SOR's strip loop raises its top run strip after strip. Every marker
// read goes through marker_of. Removing slices leaves the raise as it is;
// writing a marker or adding slices first writes it through (settle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/ownership.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::data {

template <typename T>
class DistArray {
 public:
  explicit DistArray(std::size_t slice_len) : slice_len_(slice_len) {}

  std::size_t slice_len() const { return slice_len_; }

  /// Tag this array with its owner's rank so slice add/remove events reach
  /// the active ownership ledger (src/check). Untagged arrays (ghost
  /// buffers, scratch copies) stay invisible to the checkers.
  void enable_ownership_checks(int rank) { check_rank_ = rank; }

  bool owns(SliceId s) const {
    const std::size_t i = lower(s);
    return i < slices_.size() && slices_[i].id == s;
  }
  int owned_count() const { return static_cast<int>(slices_.size()); }

  /// Add a slice with the given contents (used at initial distribution and
  /// when receiving moved work).
  void add(SliceId id, std::vector<T> contents, int marker = 0) {
    NOWLB_CHECK(contents.size() == slice_len_,
                "slice " << id << " has wrong length " << contents.size());
    settle();
    const std::size_t i = lower(id);
    NOWLB_CHECK(i == slices_.size() || slices_[i].id != id,
                "slice " << id << " already present");
    slices_.insert(slices_.begin() + static_cast<std::ptrdiff_t>(i),
                   Slice{id, marker, std::move(contents)});
    report(&SliceLedger::on_slice_added, id);
  }

  /// Remove a slice and return its contents (used when sending work away).
  std::pair<std::vector<T>, int> remove(SliceId id) {
    const std::size_t i = held(id);
    auto result =
        std::make_pair(std::move(slices_[i].data), marker_of(slices_[i]));
    slices_.erase(slices_.begin() + static_cast<std::ptrdiff_t>(i));
    report(&SliceLedger::on_slice_removed, id);
    return result;
  }

  std::vector<T>& slice(SliceId id) { return slices_[held(id)].data; }
  const std::vector<T>& slice(SliceId id) const {
    return slices_[held(id)].data;
  }

  int marker(SliceId id) const { return marker_of(slices_[held(id)]); }
  void set_marker(SliceId id, int m) {
    settle();
    slices_[held(id)].marker = m;
  }

  /// Sorted ids of locally held slices.
  std::vector<SliceId> owned_ids() const {
    std::vector<SliceId> out;
    out.reserve(slices_.size());
    for (const Slice& s : slices_) out.push_back(s.id);
    return out;
  }

  /// Lowest / highest held id; throws when no slice is held.
  SliceId lowest_id() const {
    NOWLB_CHECK(!slices_.empty(), "no slices held");
    return slices_.front().id;
  }
  SliceId highest_id() const {
    NOWLB_CHECK(!slices_.empty(), "no slices held");
    return slices_.back().id;
  }

  /// Number of highest slices whose marker is below `m`. Requires that the
  /// markers never rise with the id, as in a staircase (is_staircase()):
  /// those slices are then the highest ones, found by one binary search.
  int top_below(int m) const {
    const auto first = std::partition_point(
        slices_.begin(), slices_.end(),
        [this, m](const Slice& s) { return marker_of(s) >= m; });
    return static_cast<int>(slices_.end() - first);
  }

  /// Number of held slices with `pred(id, marker)`.
  template <typename Pred>
  int count_if(Pred pred) const {
    return static_cast<int>(std::count_if(
        slices_.begin(), slices_.end(),
        [this, &pred](const Slice& s) { return pred(s.id, marker_of(s)); }));
  }

  /// Lowest held id with `pred(id, marker)`, if any.
  template <typename Pred>
  std::optional<SliceId> first_if(Pred pred) const {
    for (const Slice& s : slices_) {
      if (pred(s.id, marker_of(s))) return s.id;
    }
    return std::nullopt;
  }

  /// Ascending ids of the `n` highest held slices with `pred(id, marker)`,
  /// or of all of them when fewer match.
  template <typename Pred>
  std::vector<SliceId> highest_if(int n, Pred pred) const {
    std::vector<SliceId> out;
    for (auto it = slices_.rbegin();
         it != slices_.rend() && std::ssize(out) < n; ++it) {
      if (pred(it->id, marker_of(*it))) out.push_back(it->id);
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  /// Set the marker of every held slice with id >= `from` to `m`, as the
  /// pending raise. O(1) when `from` is at or below the pending raise's
  /// id, as when SOR raises its top run again; otherwise the slices
  /// between the two first take the pending marker.
  void set_markers_from(SliceId from, int m) {
    if (from > raise_from_) {
      for (std::size_t i = lower(static_cast<SliceId>(raise_from_));
           i < slices_.size() && slices_[i].id < from; ++i) {
        slices_[i].marker = raise_marker_;
      }
    }
    raise_from_ = from;
    raise_marker_ = m;
  }

  /// True when the held ids are contiguous and their markers never increase
  /// with the id (vacuously true when empty). Pipelined applications keep
  /// this shape, so their lowest markers always form the top run.
  bool is_staircase() const {
    return std::adjacent_find(slices_.begin(), slices_.end(),
                              [this](const Slice& lo, const Slice& hi) {
                                return hi.id != lo.id + 1 ||
                                       marker_of(hi) > marker_of(lo);
                              }) == slices_.end();
  }

 private:
  struct Slice {
    SliceId id = 0;
    int marker = 0;
    std::vector<T> data;
  };

 public:
  /// One moved slice on the wire (§4.5). Its contents are an owned field,
  /// which travels as a payload segment. `Col` is std::span<const T> while
  /// the slice is only sized here, std::vector<T> once it is taken to be
  /// written or has been read.
  template <class Col = std::vector<T>>
  struct Record {
    std::int32_t id = 0;
    std::int32_t marker = 0;
    msg::Owned<Col> contents;
    template <class A> void fields(A& a) { a(id, marker, contents); }
  };

  /// Slices moving out of or into an array, in ascending id order, as a
  /// movement payload's list of records (a msg::RecordList), handled as one
  /// batch. Writing it moves each slice's vector out to the payload as a
  /// segment; the last record drops the emptied entries in one pass.
  /// Reading it takes each record's vector back from its segment; the last
  /// one merges the batch into the array in one pass. So a moved slice's
  /// values are never copied, and a move costs one pass over the array,
  /// not one shift per slice. Sizing and writing visit the records in id
  /// order, so each record is first looked for in the entry after the
  /// previous record's: a run of neighbouring ids, as SOR moves, costs one
  /// binary search a pass. The ownership ledger sees one removal per slice
  /// written and one add per slice read, in wire order.
  class Moving {
    static_assert(std::is_same_v<T, double>,
                  "only double slices move: a payload segment holds a "
                  "std::vector<double>");

   public:
    using value_type = Record<>;

    /// The slices `ids` of `from`, to be written; the ids must ascend.
    Moving(DistArray& from, std::vector<SliceId> ids)
        : array_(&from), ids_(std::move(ids)) {
      NOWLB_CHECK(std::adjacent_find(ids_.begin(), ids_.end(),
                                     std::greater_equal<>()) == ids_.end(),
                  "slices to move are not in ascending id order");
    }
    /// An empty list that adds what is read to `into`.
    explicit Moving(DistArray& into) : array_(&into) {}

    std::size_t size() const { return ids_.size(); }
    Record<std::span<const T>> record(std::size_t i) const {
      const Slice& s = array_->slices_[find(i)];
      return {s.id, array_->marker_of(s), {s.data}};
    }
    Record<> take(std::size_t i) {
      Slice& s = array_->slices_[find(i)];
      Record<> r{s.id, array_->marker_of(s), {std::move(s.data)}};
      array_->report(&SliceLedger::on_slice_removed, r.id);
      NOWLB_CHECK(r.contents.values.size() == array_->slice_len_,
                  "slice " << r.id << " resized to "
                           << r.contents.values.size());
      if (i + 1 == ids_.size()) array_->erase(ids_);
      return r;
    }
    void reserve(std::size_t n) {
      ids_.reserve(n);
      batch_.reserve(n);
      expected_ = n;
    }
    void read(Record<>&& r) {
      NOWLB_CHECK(r.contents.values.size() == array_->slice_len_,
                  "slice " << r.id << " has wrong length "
                           << r.contents.values.size());
      NOWLB_CHECK(ids_.empty() || ids_.back() < r.id,
                  "moved slice " << r.id << " follows slice " << ids_.back());
      ids_.push_back(r.id);
      batch_.push_back(Slice{r.id, r.marker, std::move(r.contents.values)});
      if (batch_.size() < expected_) return;
      array_->merge(batch_);
      for (SliceId id : ids_) array_->report(&SliceLedger::on_slice_added, id);
    }
    /// The slices written, or the slices read so far.
    const std::vector<SliceId>& ids() const& { return ids_; }
    std::vector<SliceId> ids() && { return std::move(ids_); }

   private:
    /// Index of the entry of ids_[i]: the entry after the last one found
    /// when it holds that id, else a binary search (which throws when the
    /// id is not held).
    std::size_t find(std::size_t i) const {
      const std::vector<Slice>& slices = array_->slices_;
      if (next_ >= slices.size() || slices[next_].id != ids_[i]) {
        next_ = array_->held(ids_[i]);
      }
      return next_++;
    }

    DistArray* array_;
    std::vector<SliceId> ids_;
    std::vector<Slice> batch_;  // read, not yet merged
    std::size_t expected_ = 0;  // records in the payload being read
    mutable std::size_t next_ = 0;  // entry after the last one found
  };

  /// Move the given slices out into a movement payload, each slice's
  /// vector a segment of it.
  msg::Payload pack_and_remove(const std::vector<SliceId>& ids) {
    return msg::encode(Moving(*this, ids));
  }

  /// Integrate a movement payload produced by pack_and_remove, taking its
  /// slices' vectors; returns the ids received (already added to the
  /// local set).
  std::vector<SliceId> unpack_and_add(msg::Payload&& payload) {
    Moving in(*this);
    msg::decode(payload, in);
    return std::move(in).ids();
  }

 private:
  /// Index of the first entry whose id is not below `id`.
  std::size_t lower(SliceId id) const {
    const auto it = std::lower_bound(
        slices_.begin(), slices_.end(), id,
        [](const Slice& s, SliceId v) { return s.id < v; });
    return static_cast<std::size_t>(it - slices_.begin());
  }
  /// Index of the entry of `id`; throws when it is not held.
  std::size_t held(SliceId id) const {
    const std::size_t i = lower(id);
    NOWLB_CHECK(i < slices_.size() && slices_[i].id == id,
                "slice " << id << " not local");
    return i;
  }

  /// The marker of entry `s`: the pending raise's when `s` is at or above
  /// its id, else the stored one.
  int marker_of(const Slice& s) const {
    return s.id >= raise_from_ ? raise_marker_ : s.marker;
  }
  /// Writes the pending raise into its entries.
  void settle() {
    if (raise_from_ == kNoRaise) return;
    for (std::size_t i = lower(static_cast<SliceId>(raise_from_));
         i < slices_.size(); ++i) {
      slices_[i].marker = raise_marker_;
    }
    raise_from_ = kNoRaise;
  }

  /// Drops the entries of `ids` (ascending, all held) in one pass.
  void erase(const std::vector<SliceId>& ids) {
    auto next = ids.begin();
    std::erase_if(slices_, [&](const Slice& s) {
      if (next == ids.end() || *next != s.id) return false;
      ++next;
      return true;
    });
  }

  /// Adds `batch` (ascending ids, not empty) in one pass; throws if an id
  /// is held. A batch wholly above or below the held ids, as SOR's moves
  /// are, is appended or prepended. One that interleaves with them, as
  /// MM's can, is checked id by id before the array changes.
  void merge(std::vector<Slice>& batch) {
    settle();
    const auto first = std::make_move_iterator(batch.begin());
    const auto last = std::make_move_iterator(batch.end());
    if (slices_.empty() || slices_.back().id < batch.front().id) {
      slices_.insert(slices_.end(), first, last);
    } else if (batch.back().id < slices_.front().id) {
      slices_.insert(slices_.begin(), first, last);
    } else {
      for (const Slice& s : batch) {
        NOWLB_CHECK(!owns(s.id), "slice " << s.id << " already present");
      }
      const auto mid = static_cast<std::ptrdiff_t>(slices_.size());
      slices_.insert(slices_.end(), first, last);
      std::inplace_merge(
          slices_.begin(), slices_.begin() + mid, slices_.end(),
          [](const Slice& a, const Slice& b) { return a.id < b.id; });
    }
    batch.clear();
  }

  void report(void (SliceLedger::*event)(int, SliceId), SliceId id) const {
    if (check_rank_ < 0) return;
    if (SliceLedger* ledger = active_slice_ledger()) {
      (ledger->*event)(check_rank_, id);
    }
  }

  // Above every SliceId, so that no slice reads a raise from here.
  static constexpr std::int64_t kNoRaise =
      std::numeric_limits<std::int64_t>::max();

  std::size_t slice_len_;
  int check_rank_ = -1;  // < 0: ownership events not reported
  std::vector<Slice> slices_;  // ascending by id
  // The pending raise: held slices from id raise_from_ up read
  // raise_marker_.
  std::int64_t raise_from_ = kNoRaise;
  int raise_marker_ = 0;
};

}  // namespace nowlb::data
