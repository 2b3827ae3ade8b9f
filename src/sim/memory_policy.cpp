#include "sim/memory_policy.hpp"

#include <cstdlib>  // strtod; also defines __GLIBC__ on glibc
#include <fstream>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace itb {

void apply_memory_policy() {
#ifdef __GLIBC__
  // glibc's default values, fixed: setting either one turns off the
  // dynamic raise of both.
  constexpr int kThresholdBytes = 128 * 1024;
  mallopt(M_MMAP_THRESHOLD, kThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kThresholdBytes);
#endif
}

namespace {

/// The value of a "Vm...:" line of /proc/self/status in MB.
std::optional<double> status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> resident_mb() { return status_mb("VmRSS:"); }

std::optional<double> peak_resident_mb() { return status_mb("VmHWM:"); }

}  // namespace itb
