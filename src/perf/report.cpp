#include "perf/report.hpp"

#include <iomanip>
#include <sstream>

#include "util/json.hpp"

namespace nowlb::perf {

std::string to_json(const ReportMeta& meta,
                    const std::vector<BenchResult>& results) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\n";
  os << "  \"schema_version\": " << kBenchSchemaVersion << ",\n";
  os << "  \"generator\": \"nowlb-bench\",\n";
  os << "  \"date\": ";
  write_json_string(os, meta.date);
  os << ",\n  \"label\": ";
  write_json_string(os, meta.label);
  os << ",\n  \"quick\": " << (meta.quick ? "true" : "false") << ",\n";
  os << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    os << "    {\n      \"name\": ";
    write_json_string(os, r.name);
    os << ",\n      \"unit\": ";
    write_json_string(os, r.unit);
    os << ",\n      \"higher_is_better\": "
       << (r.higher_is_better ? "true" : "false") << ",\n";
    os << "      \"reps\": " << r.reps << ",\n";
    os << "      \"warmup\": " << r.warmup << ",\n";
    os << "      \"median\": " << r.median() << ",\n";
    os << "      \"p90\": " << r.p90() << ",\n";
    os << "      \"min\": " << r.min() << ",\n";
    os << "      \"max\": " << r.max() << ",\n";
    os << "      \"samples\": [";
    for (std::size_t j = 0; j < r.samples.size(); ++j) {
      if (j) os << ", ";
      os << r.samples[j];
    }
    os << "],\n      \"extra\": {";
    bool first = true;
    for (const auto& [k, v] : r.extra) {
      if (!first) os << ", ";
      first = false;
      write_json_string(os, k);
      os << ": " << v;
    }
    os << "}\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace nowlb::perf
