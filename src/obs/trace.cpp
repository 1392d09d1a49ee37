#include "obs/trace.hpp"

namespace nowlb::obs {

void TraceBus::instant(Time t, int host, int lane, const char* cat,
                       const char* name, TraceArg a0, TraceArg a1,
                       TraceArg a2) {
  push({t, 0, host, lane, TraceEvent::Phase::kInstant, cat, name, a0, a1,
        a2});
}

void TraceBus::complete(Time begin, Time end, int host, int lane,
                        const char* cat, const char* name, TraceArg a0,
                        TraceArg a1, TraceArg a2) {
  push({begin, end - begin, host, lane, TraceEvent::Phase::kComplete, cat,
        name, a0, a1, a2});
}

}  // namespace nowlb::obs
