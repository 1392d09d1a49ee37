// Aligned-text table and ASCII chart printers for bench output.
//
// Every bench binary prints the rows the paper's tables/figures report; the
// Table type keeps that output uniform and machine-greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nowlb {

/// Column-aligned table with a title, header row, and string cells.
/// Numeric helpers format with fixed precision so rows line up.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> names);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& s);
  Table& cell(const char* s) { return cell(std::string(s)); }
  Table& cell(double v, int precision = 2);
  Table& cell(long long v);
  Table& cell(int v) { return cell(static_cast<long long>(v)); }
  Table& cell(std::size_t v) { return cell(static_cast<long long>(v)); }

  /// mean ± half-range, the paper's error-bar convention.
  Table& cell_pm(double mean, double halfwidth, int precision = 2);

  void print(std::ostream& os) const;

  std::size_t rows() const { return cells_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

/// ASCII sparkline chart of a series (for Fig. 9-style traces in terminal).
/// Renders `height` rows of `width` columns, resampling the series.
std::string ascii_chart(const std::vector<double>& t,
                        const std::vector<double>& v, int width = 72,
                        int height = 12, const std::string& label = "");

}  // namespace nowlb
