// What one workload run hands back to main(): operation counts, the
// messages of failed operations, the metrics of the requested kind, and an
// info document (sample counts, tail percentiles, tracing overhead) that is
// printed beside the result but is not itself a metric.
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// Pool widths every workload pins (never 0, which means "hardware").
/// Build and APSP pools, the epoch reader's engine, the served engine and
/// the server's per-batch fan-out.
struct PoolWidths {
  int build_threads = 2;
  int query_threads = 1;
  int batch_threads = 1;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from the untraced run; true: the traced
  /// replay's per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty skips it.
  std::string spans_path;
  PoolWidths widths;
  /// Directory for snapshot files; created and removed by the workload.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class WorkloadResult {
 public:
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  rtr::Json info{rtr::JsonObject{}};

  /// Counts one failed operation and keeps the first messages.
  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < kKeptErrors) errors.push_back(message);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  std::vector<std::string> errors;

 private:
  static constexpr std::size_t kKeptErrors = 16;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H
