#include "obs/run_report.hpp"

#include <fstream>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"

namespace opprentice::obs {
namespace {

// Compiler identification from predefined macros, most specific first
// (clang also defines __GNUC__).
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + '.' +
         std::to_string(__clang_minor__) + '.' +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + '.' +
         std::to_string(__GNUC_MINOR__) + '.' +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string build_type() {
#ifdef OPPRENTICE_BUILD_TYPE
  return OPPRENTICE_BUILD_TYPE;
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

// Renders every registered counter whose name starts with `prefix` as a
// JSON object keyed by the suffix after the prefix.
void append_counters_with_prefix(std::string& out, std::string_view prefix) {
  auto& registry = Registry::instance();
  out += '{';
  bool first = true;
  for (const auto& name : registry.counter_names()) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (!first) out += ", ";
    first = false;
    append_json_string(out, std::string_view(name).substr(prefix.size()));
    out += ": " + std::to_string(registry.counter(name).value());
  }
  out += '}';
}

}  // namespace

RunReport::RunReport(std::string tool, std::string command)
    : tool_(std::move(tool)), command_(std::move(command)) {}

void RunReport::set_seed(std::string_view name, std::uint64_t value) {
  for (auto& [key, v] : seeds_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  seeds_.emplace_back(std::string(name), value);
}

void RunReport::add_stage(std::string_view name, double ms) {
  stages_.emplace_back(std::string(name), ms);
}

void RunReport::set_field_json(std::string_view key, std::string json) {
  for (auto& [k, v] : extra_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  extra_.emplace_back(std::string(key), std::move(json));
}

void RunReport::set_field(std::string_view key, std::string_view value) {
  std::string json;
  append_json_string(json, value);
  set_field_json(key, std::move(json));
}

void RunReport::set_field(std::string_view key, double value) {
  std::string json;
  append_json_double(json, value);
  set_field_json(key, std::move(json));
}

void RunReport::set_field(std::string_view key, std::uint64_t value) {
  set_field_json(key, std::to_string(value));
}

void RunReport::set_field(std::string_view key, bool value) {
  set_field_json(key, value ? "true" : "false");
}

std::string RunReport::to_json() const {
  auto& registry = Registry::instance();
  std::string out = "{\n\"schema\": ";
  append_json_string(out, kSchema);
  out += ",\n\"tool\": ";
  append_json_string(out, tool_);
  out += ",\n\"command\": ";
  append_json_string(out, command_);

  out += ",\n\"build\": {\"compiler\": ";
  append_json_string(out, compiler_id());
  out += ", \"build_type\": ";
  append_json_string(out, build_type());
  out += ", \"cxx_standard\": " + std::to_string(__cplusplus) + "}";

  out += ",\n\"threads\": {\"configured\": " + std::to_string(threads_);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";

  out += ",\n\"seeds\": {";
  bool first = true;
  for (const auto& [name, value] : seeds_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += "}";

  out += ",\n\"stages\": [";
  first = true;
  for (const auto& [name, ms] : stages_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": ";
    append_json_string(out, name);
    out += ", \"ms\": ";
    append_json_double(out, ms);
    out += '}';
  }
  out += first ? "]" : "\n]";

  out += ",\n\"counters\": {";
  first = true;
  for (const auto& name : registry.counter_names()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  ";
    append_json_string(out, name);
    out += ": " + std::to_string(registry.counter(name).value());
  }
  out += first ? "}" : "\n}";

  // Fault / repair / quarantine summaries (DESIGN.md §5f): the counters
  // each resilience layer maintains, grouped by layer.
  out += ",\n\"resilience\": {\"faults\": ";
  append_counters_with_prefix(out, "opprentice.faults.");
  out += ", \"ingest\": ";
  append_counters_with_prefix(out, "opprentice.ingest.");
  out += ", \"detector\": ";
  append_counters_with_prefix(out, "opprentice.detector.");
  out += ", \"net\": ";
  append_counters_with_prefix(out, "opprentice.net.");
  out += ", \"net_sources\": {";
  {
    bool g_first = true;
    for (const auto& name : registry.gauge_names()) {
      constexpr std::string_view kNetPrefix = "opprentice.net.";
      if (name.rfind(kNetPrefix, 0) != 0) continue;
      if (!g_first) out += ", ";
      g_first = false;
      append_json_string(out,
                         std::string_view(name).substr(kNetPrefix.size()));
      out += ": ";
      append_json_double(out, registry.gauge(name).value());
    }
  }
  out += '}';
  out += ", \"forest_train_failures\": " +
         std::to_string(
             registry.counter("opprentice.forest.train_failures").value());
  out += "}";

  out += ",\n\"flight_recorder\": ";
  out += FlightRecorder::instance().dump_json();

  out += ",\n\"extra\": {";
  first = true;
  for (const auto& [key, json] : extra_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  ";
    append_json_string(out, key);
    out += ": " + json;
  }
  out += first ? "}" : "\n}";
  out += "\n}\n";
  return out;
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace opprentice::obs
