// Test-only reference repair: ts::repair_series as it was before the
// one-pass rewrite. It counts inversions, then always stable-sorts, then
// places every point on the grid through a `filled` bitmap and counts
// gaps in a second scan over the slots. It records no metrics and logs
// nothing; the results, and for a refused chunk the exception message,
// are the shipped function's contract. tests/timeseries_test.cpp
// (RepairOracle) checks the shipped repair against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "timeseries/repair.hpp"

namespace opprentice::ts::reference {

RepairResult repair_series(std::string name, std::vector<RawPoint> points,
                           std::int64_t interval_seconds,
                           RepairPolicy policy);

}  // namespace opprentice::ts::reference
