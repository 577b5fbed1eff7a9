// Host facts recorded beside every result: CPU model, usable cores, the
// process's peak resident set, and a monotonic stopwatch.
#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <sched.h>

#include <chrono>
#include <string>

namespace perfbench {

[[nodiscard]] std::string cpu_model();
[[nodiscard]] int usable_cores();
/// VmHWM of this process in MiB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();

/// Restricts the calling thread to one CPU for its lifetime, then restores
/// its previous mask.  Threads started meanwhile inherit the one-CPU mask
/// and keep it.  Does nothing when the kernel refuses.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double ms() const { return seconds() * 1e3; }
  [[nodiscard]] double us() const { return seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H
