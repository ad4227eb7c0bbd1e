#include "spans.hpp"

#include <fstream>

#include "obs/json_util.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled, std::size_t max_raw_spans)
    : enabled_(enabled), max_raw_spans_(max_raw_spans), origin_(Clock::now()) {}

Tracer::NameId Tracer::name(std::string_view span_name, bool keep_samples) {
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i].name == span_name) {
      names_[i].keep_samples = names_[i].keep_samples || keep_samples;
      return i;
    }
  }
  NameStats stats;
  stats.name = std::string(span_name);
  stats.keep_samples = keep_samples;
  names_.push_back(std::move(stats));
  return names_.size() - 1;
}

void Tracer::record(NameId name, SpanId id, SpanId parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end) {
  NameStats& stats = names_[name];
  const double us = micros(end - start);
  ++stats.count;
  stats.total_us += us;
  if (stats.keep_samples) stats.samples_us.push_back(us);
  if (raw_.size() < max_raw_spans_) {
    raw_.push_back(RawSpan{name, id, parent, request, start, end});
  }
}

const Tracer::NameStats* Tracer::find(std::string_view span_name) const {
  for (const NameStats& stats : names_) {
    if (stats.name == span_name) return &stats;
  }
  return nullptr;
}

double Tracer::mean_us(std::string_view span_name) const {
  const NameStats* stats = find(span_name);
  if (stats == nullptr || stats->count == 0) return 0.0;
  return stats->total_us / static_cast<double>(stats->count);
}

double Tracer::total_us(std::string_view span_name) const {
  const NameStats* stats = find(span_name);
  return stats == nullptr ? 0.0 : stats->total_us;
}

std::size_t Tracer::count(std::string_view span_name) const {
  const NameStats* stats = find(span_name);
  return stats == nullptr ? 0 : stats->count;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string doc = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& span = raw_[i];
    if (i > 0) doc += ",\n";
    doc += "{\"name\": ";
    opprentice::obs::append_json_string(doc, names_[span.name].name);
    doc += ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ";
    opprentice::obs::append_json_double(doc, micros(span.start - origin_));
    doc += ", \"dur\": ";
    opprentice::obs::append_json_double(doc, micros(span.end - span.start));
    doc += ", \"args\": {\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"request\": " + std::to_string(span.request) + "}}";
  }
  doc += "\n],\n\"spans_recorded\": " + std::to_string(next_id_) +
         ", \"spans_kept\": " + std::to_string(raw_.size()) + "}\n";
  out << doc;
  return static_cast<bool>(out);
}

}  // namespace perfbench
