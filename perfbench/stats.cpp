#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-th percentile among n samples.
std::int64_t nearest_rank(std::int64_t n, double q) {
  // The epsilon keeps q*n/100 = 9990.000000000002 (q = 99.9, n = 10000)
  // from rounding up past an exact rank.
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::int64_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  const std::int64_t n = static_cast<std::int64_t>(sorted.size());
  if (n == 0) return 0;
  return sorted[static_cast<std::size_t>(nearest_rank(n, q) - 1)];
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) return 0;
  return n - nearest_rank(n, q);
}

double tail_percentile(std::int64_t n) {
  for (const double q : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, q) >= kTailBeyond) return q;
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void SampleBuffer::add(double value) {
  if (offered_++ % stride_ != 0) return;
  if (kept_.size() == kept_.capacity()) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
    kept_.resize(out);
    stride_ *= 2;
    // The value in hand sits on the old stride's grid; keep it only if it
    // also sits on the new one.
    if ((offered_ - 1) % stride_ != 0) return;
  }
  kept_.push_back(value);
}

LatencySummary summarize(std::vector<double>& values) {
  LatencySummary s;
  s.samples = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.mean = mean(values);
  s.p50 = percentile_sorted(values, 50.0);
  s.p99 = percentile_sorted(values, 99.0);
  s.tail_q = tail_percentile(s.samples);
  if (s.tail_q > 0) s.tail = percentile_sorted(values, s.tail_q);
  return s;
}

}  // namespace perfbench
