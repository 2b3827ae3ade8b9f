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

std::optional<double> resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nullopt;
}

}  // namespace itb
