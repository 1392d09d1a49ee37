// Slice-ownership tap for the runtime invariant layer (src/check).
//
// A DistArray whose rank tag is set reports every slice add/remove to the
// process-global ledger, letting a checker assert that each slice id is
// owned by exactly one rank at all times (no-duplicate / no-lost ownership
// — the property LU's pivot-owner broadcast, §4.6, silently depends on). The
// simulation is cooperative single-threaded, so one global slot suffices;
// it is null whenever no checker is active, making the tap a single branch.
#pragma once

#include "data/slice.hpp"

namespace nowlb::data {

class SliceLedger {
 public:
  virtual ~SliceLedger() = default;
  virtual void on_slice_added(int rank, SliceId id) = 0;
  virtual void on_slice_removed(int rank, SliceId id) = 0;
};

/// The active ledger slot (null = no checking).
inline SliceLedger*& active_slice_ledger() {
  static SliceLedger* ledger = nullptr;
  return ledger;
}

/// RAII installation of a ledger for the duration of one simulation run.
class SliceLedgerScope {
 public:
  explicit SliceLedgerScope(SliceLedger* ledger) {
    active_slice_ledger() = ledger;
  }
  ~SliceLedgerScope() { active_slice_ledger() = nullptr; }
  SliceLedgerScope(const SliceLedgerScope&) = delete;
  SliceLedgerScope& operator=(const SliceLedgerScope&) = delete;
};

}  // namespace nowlb::data
