#include "obs/trace.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace opprentice::obs {
namespace {

struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   // span start, relative to the trace epoch
  double dur_us = 0.0;  // span duration
  std::uint32_t tid = 0;
  std::string args_json;  // pre-rendered "key": value pairs, may be empty
};

// One global collector guarded by a mutex. Spans push on destruction;
// tracing implies a diagnostic run, so a short critical section per span
// is acceptable (the *disabled* path never touches this).
struct Collector {
  util::Mutex mutex{util::LockLevel::trace_collector};
  std::vector<TraceEvent> events OPPRENTICE_GUARDED_BY(mutex);
  std::map<std::thread::id, std::uint32_t> thread_ids
      OPPRENTICE_GUARDED_BY(mutex);
  // Immutable after construction; spans read it without the lock.
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  std::uint32_t tid_for_current_thread() OPPRENTICE_REQUIRES(mutex) {
    const auto id = std::this_thread::get_id();
    const auto it = thread_ids.find(id);
    if (it != thread_ids.end()) return it->second;
    const auto tid = static_cast<std::uint32_t>(thread_ids.size() + 1);
    thread_ids.emplace(id, tid);
    return tid;
  }
};

Collector& collector() {
  // opprentice-check: allow(unguarded-static) Meyers singleton; Collector state is guarded by its own mutex
  static Collector c;
  return c;
}

std::atomic<bool> g_tracing{false};

// OPPRENTICE_TRACE=<path>: enable collection for the whole process and
// write the file when the process exits. Defined after collector() so its
// destructor (which touches the collector) runs before the collector is
// torn down.
struct EnvTrace {
  std::string path;
  EnvTrace() {
    if (const char* env = std::getenv("OPPRENTICE_TRACE");
        env != nullptr && *env != '\0') {
      path = env;
      enable_tracing();
    }
  }
  ~EnvTrace() {
    if (!path.empty()) write_trace(path);
  }
};
const EnvTrace g_env_trace;

}  // namespace

bool tracing_enabled() {
  return g_tracing.load(std::memory_order_relaxed);
}

void enable_tracing() {
  collector();  // force construction before first span
  g_tracing.store(true, std::memory_order_relaxed);
  set_detailed_timing(true);
}

void disable_tracing() { g_tracing.store(false, std::memory_order_relaxed); }

void clear_trace() {
  auto& c = collector();
  util::MutexLock lock(c.mutex);
  c.events.clear();
}

std::size_t trace_event_count() {
  auto& c = collector();
  util::MutexLock lock(c.mutex);
  return c.events.size();
}

bool write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  auto& c = collector();
  util::MutexLock lock(c.mutex);
  std::string doc = "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& e : c.events) {
    if (!first) doc += ",\n";
    first = false;
    doc += "{\"name\": ";
    append_json_string(doc, e.name);
    doc += ", \"cat\": ";
    append_json_string(doc, e.category);
    doc += ", \"ph\": \"X\", \"ts\": ";
    append_json_double(doc, e.ts_us);
    doc += ", \"dur\": ";
    append_json_double(doc, e.dur_us);
    doc += ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    if (!e.args_json.empty()) {
      doc += ", \"args\": {" + e.args_json + '}';
    }
    doc += '}';
  }
  doc += "\n], \"displayTimeUnit\": \"ms\"}\n";
  out << doc;
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category) {
  if (!tracing_enabled()) return;
  active_ = true;
  name_ = name;
  category_ = category;
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  auto& c = collector();
  TraceEvent e;
  e.name = std::move(name_);
  e.category = std::move(category_);
  e.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  e.ts_us =
      std::chrono::duration<double, std::micro>(start_ - c.epoch).count();
  e.args_json = std::move(args_json_);
  util::MutexLock lock(c.mutex);
  e.tid = c.tid_for_current_thread();
  c.events.push_back(std::move(e));
}

void ScopedSpan::arg_impl(std::string_view key, double value) {
  if (!args_json_.empty()) args_json_ += ", ";
  append_json_string(args_json_, key);
  args_json_ += ": ";
  if (std::abs(value) < 9.0e15 && value == std::floor(value)) {
    args_json_ += std::to_string(static_cast<std::int64_t>(value));
  } else {
    append_json_double(args_json_, value);
  }
}

}  // namespace opprentice::obs
