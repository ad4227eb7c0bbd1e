// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (the program itself stays untraced: this
// recorder never touches obs::, so detailed timing stays off). Every span
// has a name, start, end, the span that caused it, and a request id (the
// tick or week it belongs to). Per-name aggregates are exact for every
// span; the first `max_raw_spans` raw spans are kept in memory and
// written out as Chrome trace-event JSON only when the run ends.
//
// A disabled tracer records nothing and reads no clock, so the same
// driver loop can run untraced and traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  using NameId = std::size_t;
  using SpanId = std::int64_t;  // -1 = none
  static constexpr SpanId kNoSpan = -1;

  struct NameStats {
    std::string name;
    bool keep_samples = false;
    std::size_t count = 0;
    double total_us = 0.0;
    std::vector<double> samples_us;  // every duration when keep_samples
  };

  explicit Tracer(bool enabled, std::size_t max_raw_spans = 50000);

  bool enabled() const { return enabled_; }
  // Pauses or resumes recording (set-up phases of a traced run are not
  // recorded).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Registers (or finds) a span name. keep_samples retains every duration
  // so percentiles can be taken; otherwise only count and total are kept.
  NameId name(std::string_view span_name, bool keep_samples = false);

  const NameStats* find(std::string_view span_name) const;
  // Mean duration in µs of the named span; 0 when it never ran.
  double mean_us(std::string_view span_name) const;
  double total_us(std::string_view span_name) const;
  std::size_t count(std::string_view span_name) const;

  // Writes the kept raw spans as Chrome trace-event JSON.
  bool write_chrome_trace(const std::string& path) const;

  // RAII span; a no-op when the tracer is disabled.
  class Span {
   public:
    Span(Tracer& tracer, NameId name, std::uint64_t request,
         SpanId parent = kNoSpan)
        : tracer_(tracer.enabled() ? &tracer : nullptr),
          name_(name),
          request_(request),
          parent_(parent) {
      if (tracer_ != nullptr) {
        id_ = tracer_->open();
        start_ = Clock::now();
      }
    }
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->record(name_, id_, parent_, request_, start_, Clock::now());
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    SpanId id() const { return id_; }

   private:
    Tracer* tracer_;
    NameId name_;
    std::uint64_t request_;
    SpanId parent_;
    SpanId id_ = kNoSpan;
    Clock::time_point start_{};
  };

 private:
  // Span ids are dense in open order.
  SpanId open() { return next_id_++; }
  void record(NameId name, SpanId id, SpanId parent, std::uint64_t request,
              Clock::time_point start, Clock::time_point end);

  struct RawSpan {
    NameId name = 0;
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    std::uint64_t request = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  bool enabled_;
  std::size_t max_raw_spans_;
  SpanId next_id_ = 0;
  Clock::time_point origin_;
  std::vector<NameStats> names_;
  std::vector<RawSpan> raw_;
};

}  // namespace perfbench
