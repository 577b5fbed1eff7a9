#include "host.h"

#include <unistd.h>

#include <fstream>

namespace perfbench {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

int usable_cores() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

CpuPin::CpuPin(int cpu) {
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace perfbench
