#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace nowlb {

Table& Table::header(std::vector<std::string> names) {
  header_ = std::move(names);
  return *this;
}

Table& Table::row() {
  cells_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& s) {
  NOWLB_CHECK(!cells_.empty(), "cell() before row()");
  cells_.back().push_back(s);
  return *this;
}

Table& Table::cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return cell(os.str());
}

Table& Table::cell(long long v) { return cell(std::to_string(v)); }

Table& Table::cell_pm(double mean, double halfwidth, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << mean << " ±"
     << std::setprecision(precision) << halfwidth;
  return cell(os.str());
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : cells_)
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c >= widths.size()) widths.resize(c + 1, 0);
      widths[c] = std::max(widths[c], r[c].size());
    }

  os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << "  " << std::setw(static_cast<int>(widths[c])) << std::right
         << r[c];
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit_row(header_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  }
  for (const auto& r : cells_) emit_row(r);
}

std::string ascii_chart(const std::vector<double>& t,
                        const std::vector<double>& v, int width, int height,
                        const std::string& label) {
  if (t.empty() || v.empty() || t.size() != v.size()) return "(empty series)\n";
  const double t0 = t.front(), t1 = t.back();
  double vmin = *std::min_element(v.begin(), v.end());
  double vmax = *std::max_element(v.begin(), v.end());
  if (vmax - vmin < 1e-12) vmax = vmin + 1.0;

  // Sample-and-hold resample into `width` columns.
  std::vector<double> col(static_cast<std::size_t>(width), vmin);
  std::size_t j = 0;
  for (int c = 0; c < width; ++c) {
    const double tc =
        t0 + (t1 - t0) * (static_cast<double>(c) / std::max(1, width - 1));
    while (j + 1 < t.size() && t[j + 1] <= tc) ++j;
    col[static_cast<std::size_t>(c)] = v[j];
  }

  std::ostringstream os;
  if (!label.empty()) os << label << '\n';
  for (int r = height - 1; r >= 0; --r) {
    const double lo = vmin + (vmax - vmin) * r / height;
    const double hi = vmin + (vmax - vmin) * (r + 1) / height;
    os << std::setw(10) << std::fixed << std::setprecision(2) << hi << " |";
    for (int c = 0; c < width; ++c) {
      const double x = col[static_cast<std::size_t>(c)];
      os << ((x >= lo && (x < hi || r == height - 1)) ? '*'
             : (x >= hi)                              ? '.'
                                                      : ' ');
    }
    os << '\n';
  }
  os << std::setw(10) << ' ' << " +" << std::string(width, '-') << '\n';
  os << std::setw(12) << ' ' << "t=" << std::setprecision(1) << t0 << "s .. "
     << t1 << "s\n";
  return os.str();
}

}  // namespace nowlb
