#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace nowlb::obs {

namespace {

/// Prometheus HELP lines escape backslash and newline.
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Prometheus label values escape backslash, double-quote and newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-th observation (1-based, ceil — the Prometheus
  // convention), then walk the buckets to the one holding it.
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += counts_[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i >= bounds_.size()) {
      // +Inf bucket: no upper bound to interpolate toward; clamp to the
      // highest finite bound (or fall back to mean for a bound-less
      // histogram).
      return bounds_.empty() ? sum_ / static_cast<double>(count_)
                             : bounds_.back();
    }
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const auto in_bucket = static_cast<double>(counts_[i]);
    if (in_bucket <= 0) return hi;
    const double frac = (rank - static_cast<double>(prev)) / in_bucket;
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

MetricsRegistry::Entry& MetricsRegistry::get(const std::string& name,
                                             Kind kind,
                                             const std::string& help) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + name +
                             "' re-registered as a different kind");
    }
    return it->second;
  }
  Entry e;
  e.kind = kind;
  e.help = help;
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  Entry& e = get(name, Kind::kCounter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  Entry& e = get(name, Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  Entry& e = get(name, Kind::kHistogram, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kCounter
             ? it->second.counter.get()
             : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kGauge
             ? it->second.gauge.get()
             : nullptr;
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream os;
  for (const auto& [name, e] : metrics_) {
    if (!e.help.empty()) {
      os << "# HELP " << name << ' ' << escape_help(e.help) << '\n';
    }
    switch (e.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << e.counter->value() << '\n';
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ' << fmt_double(e.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        const Histogram& h = *e.histogram;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cum += h.bucket_counts()[i];
          os << name << "_bucket{le=\""
             << escape_label(fmt_double(h.bounds()[i])) << "\"} " << cum
             << '\n';
        }
        cum += h.bucket_counts().back();
        os << name << "_bucket{le=\"+Inf\"} " << cum << '\n';
        os << name << "_sum " << fmt_double(h.sum()) << '\n';
        os << name << "_count " << h.count() << '\n';
        // Interpolated quantile estimates (histogram_quantile computed at
        // dump time, saving the PromQL round trip in offline analysis).
        if (h.count() > 0) {
          os << name << "_p50 " << fmt_double(h.quantile(0.50)) << '\n';
          os << name << "_p90 " << fmt_double(h.quantile(0.90)) << '\n';
          os << name << "_p99 " << fmt_double(h.quantile(0.99)) << '\n';
        }
        break;
      }
    }
  }
  return os.str();
}

}  // namespace nowlb::obs
