#include "rss.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace perfbench {

std::size_t current_rss_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(statm, "%lu %lu", &total, &resident);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
