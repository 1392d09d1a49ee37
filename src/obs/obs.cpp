#include "obs/obs.hpp"

#include <cstdio>
#include <fstream>

#include "obs/chrome_trace.hpp"

namespace nowlb::obs {

bool write_files(const Observability& hub, const std::string& trace_path,
                 const std::string& metrics_path) {
  bool ok = true;
  if (!trace_path.empty()) {
    if (write_chrome_trace_file(trace_path, hub.trace)) {
      std::fprintf(stderr, "trace: wrote %zu event(s) to %s\n",
                   hub.trace.events().size(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path.c_str());
      ok = false;
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << hub.metrics.prometheus_text();
    if (out.flush()) {
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   metrics_path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace nowlb::obs
