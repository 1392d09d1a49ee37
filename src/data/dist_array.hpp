// DistArray<T>: a slave's local portion of a 1-D-distributed 2-D array.
//
// The array is distributed by slices (e.g. columns); each slice is a fixed-
// length vector of T. Because load balancing moves slices at run time, the
// local portion is not a contiguous block: slices are looked up through the
// owned-index structure — the paper's "extra level of indirection" (§4.5).
//
// Each slice carries an application-defined integer `marker`, used by
// pipelined applications (SOR) to track how far a moved slice has been
// computed, enabling the catch-up / set-aside reconciliation of §4.5.
#pragma once

#include <algorithm>
#include <map>
#include <span>
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

  bool owns(SliceId s) const { return slices_.count(s) > 0; }
  int owned_count() const { return static_cast<int>(slices_.size()); }

  /// Add a slice with the given contents (used at initial distribution and
  /// when receiving moved work).
  void add(SliceId id, std::vector<T> contents, int marker = 0) {
    NOWLB_CHECK(contents.size() == slice_len_,
                "slice " << id << " has wrong length " << contents.size());
    const auto [it, inserted] =
        slices_.emplace(id, Slice{std::move(contents), marker});
    NOWLB_CHECK(inserted, "slice " << id << " already present");
    (void)it;
    if (check_rank_ >= 0) {
      if (SliceLedger* ledger = active_slice_ledger()) {
        ledger->on_slice_added(check_rank_, id);
      }
    }
  }

  /// Remove a slice and return its contents (used when sending work away).
  std::pair<std::vector<T>, int> remove(SliceId id) {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not present");
    auto result = std::make_pair(std::move(it->second.data), it->second.marker);
    slices_.erase(it);
    if (check_rank_ >= 0) {
      if (SliceLedger* ledger = active_slice_ledger()) {
        ledger->on_slice_removed(check_rank_, id);
      }
    }
    return result;
  }

  std::vector<T>& slice(SliceId id) {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not local");
    return it->second.data;
  }
  const std::vector<T>& slice(SliceId id) const {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not local");
    return it->second.data;
  }

  int marker(SliceId id) const {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not local");
    return it->second.marker;
  }
  void set_marker(SliceId id, int m) {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not local");
    it->second.marker = m;
  }

  /// Sorted ids of locally held slices.
  std::vector<SliceId> owned_ids() const {
    std::vector<SliceId> out;
    out.reserve(slices_.size());
    for (const auto& [id, _] : slices_) out.push_back(id);
    return out;
  }

  /// Lowest / highest held id; throws when no slice is held.
  SliceId lowest_id() const {
    NOWLB_CHECK(!slices_.empty(), "no slices held");
    return slices_.begin()->first;
  }
  SliceId highest_id() const {
    NOWLB_CHECK(!slices_.empty(), "no slices held");
    return slices_.rbegin()->first;
  }

  /// Length of the run of highest ids whose markers all satisfy `pred`:
  /// walks down from the highest id and stops at the first that fails.
  template <typename Pred>
  int top_run(Pred pred) const {
    int n = 0;
    for (auto it = slices_.rbegin();
         it != slices_.rend() && pred(it->second.marker); ++it) {
      ++n;
    }
    return n;
  }

  /// Set the marker of every held slice with id >= `from` to `m`.
  void set_markers_from(SliceId from, int m) {
    for (auto it = slices_.lower_bound(from); it != slices_.end(); ++it) {
      it->second.marker = m;
    }
  }

  /// True when the held ids are contiguous and their markers never increase
  /// with the id (vacuously true when empty). Pipelined applications keep
  /// this shape, so their lowest markers always form the top run.
  bool is_staircase() const {
    return std::adjacent_find(slices_.begin(), slices_.end(),
                              [](const auto& lo, const auto& hi) {
                                return hi.first != lo.first + 1 ||
                                       hi.second.marker > lo.second.marker;
                              }) == slices_.end();
  }

  /// One moved slice on the wire (§4.5). `Col` is std::span<const T> while
  /// the slice is still held here, std::vector<T> once read off the wire.
  template <class Col = std::vector<T>>
  struct Record {
    std::int32_t id = 0;
    std::int32_t marker = 0;
    Col contents;
    template <class A> void fields(A& a) { a(id, marker, contents); }
  };

  /// Slices moving out of or into an array, as a movement payload's list of
  /// records (a msg::RecordList). Writing it removes each slice just before
  /// it is written and frees it right after; reading it adds each slice as
  /// soon as it is read. So a moved slice is never held twice.
  class Moving {
   public:
    using value_type = Record<>;

    /// The slices `ids` of `from`, to be written.
    Moving(DistArray& from, std::vector<SliceId> ids)
        : array_(&from), ids_(std::move(ids)) {}
    /// An empty list that adds what is read to `into`.
    explicit Moving(DistArray& into) : array_(&into) {}

    std::size_t size() const { return ids_.size(); }
    Record<std::span<const T>> record(std::size_t i) const {
      const Slice& s = array_->held(ids_[i]);
      return {ids_[i], s.marker, s.data};
    }
    Record<> take(std::size_t i) {
      auto [contents, marker] = array_->remove(ids_[i]);
      NOWLB_CHECK(contents.size() == array_->slice_len_,
                  "slice " << ids_[i] << " resized to " << contents.size());
      return {ids_[i], marker, std::move(contents)};
    }
    void reserve(std::size_t n) { ids_.reserve(n); }
    void read(Record<>&& r) {
      array_->add(r.id, std::move(r.contents), r.marker);
      ids_.push_back(r.id);
    }
    /// The slices written, or the slices read so far.
    const std::vector<SliceId>& ids() const& { return ids_; }
    std::vector<SliceId> ids() && { return std::move(ids_); }

   private:
    DistArray* array_;
    std::vector<SliceId> ids_;
  };

  /// Serialize the given slices (removing them) into a movement payload.
  msg::Bytes pack_and_remove(const std::vector<SliceId>& ids) {
    return msg::encode(Moving(*this, ids));
  }

  /// Integrate a movement payload produced by pack_and_remove; returns the
  /// ids received (already added to the local set).
  std::vector<SliceId> unpack_and_add(const msg::Bytes& payload) {
    Moving in(*this);
    msg::decode(payload, in);
    return std::move(in).ids();
  }

 private:
  struct Slice {
    std::vector<T> data;
    int marker = 0;
  };

  const Slice& held(SliceId id) const {
    const auto it = slices_.find(id);
    NOWLB_CHECK(it != slices_.end(), "slice " << id << " not local");
    return it->second;
  }

  std::size_t slice_len_;
  int check_rank_ = -1;  // < 0: ownership events not reported
  std::map<SliceId, Slice> slices_;  // ordered for deterministic iteration
};

}  // namespace nowlb::data
