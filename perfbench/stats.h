// Summary statistics for the benchmark: medians, nearest-rank percentiles,
// and the tail rule -- a tail percentile is reported only when at least
// kTailBeyond samples lie beyond it, so a p99 from 200 samples (two samples
// above it) is never presented as a measured tail.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::int64_t kTailBeyond = 10;

/// Nearest-rank percentile (q in [0, 100]) of `sorted` (ascending, non-empty):
/// the value at 1-based rank ceil(q/100 * n), clamped to [1, n].
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::int64_t samples_beyond(std::int64_t n, double q);

/// The highest percentile of {99.99, 99.9, 99, 90, 50} with at least
/// kTailBeyond samples beyond it; 0 when even the median has fewer (n < 20).
[[nodiscard]] double tail_percentile(std::int64_t n);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.  Takes a copy because it sorts.
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// A bounded, deterministic sample store for high-rate loops: keeps every
/// stride-th value and, when full, drops every other kept value and doubles
/// the stride, so memory (and hence the peak RSS the benchmark reports)
/// stays fixed however fast the loop runs.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t capacity) { kept_.reserve(capacity); }
  void add(double value);
  [[nodiscard]] const std::vector<double>& kept() const { return kept_; }
  [[nodiscard]] std::vector<double>& kept() { return kept_; }
  /// Values offered, kept or not.
  [[nodiscard]] std::int64_t offered() const { return offered_; }

 private:
  std::vector<double> kept_;
  std::int64_t offered_ = 0;
  std::int64_t stride_ = 1;
};

/// Latency distribution of one run, in the unit the samples were given in.
struct LatencySummary {
  std::int64_t samples = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  /// tail_percentile(samples) and the value there (0 / 0 when undefined).
  double tail_q = 0;
  double tail = 0;
};

/// Summarises `values` (any order; sorted in place).
[[nodiscard]] LatencySummary summarize(std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
