#include "obs/trace.hpp"

#include <algorithm>
#include <new>
#include <type_traits>

namespace nowlb::obs {

// Slots are raw storage: an event is constructed into one and never
// destroyed, and a block is freed without visiting its events.
static_assert(std::is_trivially_destructible_v<TraceEvent>);

namespace {
constexpr std::size_t kBlockBytes =
    TraceEvents::kBlockEvents * sizeof(TraceEvent);
}  // namespace

TraceEvents::~TraceEvents() {
  for (TraceEvent* block : blocks_) ::operator delete(block, kBlockBytes);
}

void TraceEvents::set_capacity(std::size_t cap) {
  capacity_ = cap;
  if (head_ != nullptr) stop_ = stop_for_cap();
}

TraceEvent* TraceEvents::stop_for_cap() const {
  if (capacity_ <= size()) return next_;
  return head_ + std::min(kBlockEvents, capacity_ - base_);
}

TraceEvent* TraceEvents::claim_slow() {
  if (size() >= capacity_) {
    ++dropped_;
    return nullptr;
  }
  // Below the cap, the slow path is only taken at a full block's end (or
  // before the first block).
  if (head_ != nullptr) base_ += kBlockEvents;
  const std::size_t block = base_ / kBlockEvents;
  if (block == blocks_.size()) {
    blocks_.push_back(static_cast<TraceEvent*>(::operator new(kBlockBytes)));
  }
  head_ = next_ = blocks_[block];
  stop_ = stop_for_cap();
  return next_++;
}

void TraceBus::instant(Time t, int host, int lane, const char* cat,
                       const char* name, TraceArg a0, TraceArg a1,
                       TraceArg a2) {
  if (TraceEvent* slot = events_.claim()) {
    ::new (slot) TraceEvent{t, 0, host, lane, TraceEvent::Phase::kInstant,
                            cat, name, a0, a1, a2};
  }
}

void TraceBus::complete(Time begin, Time end, int host, int lane,
                        const char* cat, const char* name, TraceArg a0,
                        TraceArg a1, TraceArg a2) {
  if (TraceEvent* slot = events_.claim()) {
    ::new (slot) TraceEvent{begin, end - begin, host, lane,
                            TraceEvent::Phase::kComplete, cat, name, a0, a1,
                            a2};
  }
}

}  // namespace nowlb::obs
