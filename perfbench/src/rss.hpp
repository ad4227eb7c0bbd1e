// Process memory, measured from outside the program's own accounting.
#pragma once

#include <cstddef>

namespace perfbench {

// Current resident set in bytes (/proc/self/statm); 0 when unavailable.
std::size_t current_rss_bytes();

// Peak resident set of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
