// Trace spans: RAII timers that record Chrome trace-event JSON
// (chrome://tracing / https://ui.perfetto.dev loadable).
//
// Tracing is off by default; `ScopedSpan` then compiles down to one
// relaxed atomic load and no clock read. It turns on either through the
// environment (`OPPRENTICE_TRACE=<path>` collects for the whole process
// and writes the file at exit) or programmatically (`enable_tracing()` +
// `write_trace(path)`, which is what the CLI --trace flag does).
// Enabling tracing also enables detailed metrics timing (metrics.hpp).
//
// Span names are dot-separated like metric names ("weekly.window",
// "forest.train"); see DESIGN.md "Observability" for the span taxonomy.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace opprentice::obs {

bool tracing_enabled();

// Starts collecting span events (idempotent).
void enable_tracing();
// Stops collecting; already-collected events stay until clear_trace().
void disable_tracing();
// Drops every collected event.
void clear_trace();
// Number of completed span events collected so far.
std::size_t trace_event_count();

// Writes all collected events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) and returns false if the file cannot be
// written. Does not clear the buffer.
bool write_trace(const std::string& path);

// Always-on stopwatch for call sites that need the elapsed time as a
// value (for printing or for Histogram::record) regardless of whether
// tracing is enabled.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_us() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(now - start_).count();
  }
  double elapsed_ms() const { return elapsed_us() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// RAII span: records one complete ("ph":"X") trace event from
// construction to destruction. Inactive (no clock read, no allocation)
// when tracing is disabled at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      std::string_view category = "opprentice");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }

  // Attaches one numeric argument shown in the trace viewer ("args"
  // object). May be called repeatedly; no-op when the span is inactive.
  // Integral values render without a decimal point.
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  void arg(std::string_view key, T value) {
    if (active_) arg_impl(key, static_cast<double>(value));
  }

 private:
  void arg_impl(std::string_view key, double value);

  bool active_ = false;
  std::string name_;
  std::string category_;
  std::string args_json_;  // rendered "key": value pairs, comma-joined
  std::chrono::steady_clock::time_point start_;
};

}  // namespace opprentice::obs
