// Small descriptive-statistics helpers used by tests and benchmark harnesses
// to summarize stretch distributions, table sizes and header sizes.
#ifndef RTR_UTIL_STATS_H
#define RTR_UTIL_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace rtr {

/// Accumulates a sample of doubles and reports summary statistics.
class Summary {
 public:
  void add(double x);

  /// Pre-sizes the sample buffer (batch loops know their size up front).
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Mean over the *sorted* sample: equal multisets give bit-identical
  /// results regardless of insertion order.
  [[nodiscard]] double stable_mean() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double min() const;
  /// q in [0,1]; nearest-rank percentile. Requires a non-empty sample.
  [[nodiscard]] double percentile(double q) const;
  /// "mean=... p50=... p99=... max=..." one-liner for logs.
  [[nodiscard]] std::string brief() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  std::int64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace rtr

#endif  // RTR_UTIL_STATS_H
