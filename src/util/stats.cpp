#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rtr {

void Summary::add(double x) {
  values_.push_back(x);
  sorted_ = false;
  ++count_;
  sum_ += x;
}

double Summary::mean() const {
  if (count_ == 0) throw std::logic_error("Summary::mean on empty sample");
  return sum_ / static_cast<double>(count_);
}

double Summary::stable_mean() const {
  if (count_ == 0) throw std::logic_error("Summary::stable_mean on empty sample");
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(count_);
}

double Summary::max() const {
  if (count_ == 0) throw std::logic_error("Summary::max on empty sample");
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::min() const {
  if (count_ == 0) throw std::logic_error("Summary::min on empty sample");
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::percentile(double q) const {
  if (count_ == 0) throw std::logic_error("Summary::percentile on empty sample");
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double rank = q * static_cast<double>(count_ - 1);
  auto idx = static_cast<std::size_t>(std::llround(rank));
  idx = std::min(idx, values_.size() - 1);
  return values_[idx];
}

std::string Summary::brief() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " p50=" << percentile(0.5)
     << " p99=" << percentile(0.99) << " max=" << max();
  return os.str();
}

}  // namespace rtr
