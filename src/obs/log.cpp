#include "obs/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "util/mutex.hpp"

namespace opprentice::obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kOff)};
std::atomic<std::ostream*> g_sink{nullptr};
// Serializes whole formatted lines into the sink so concurrent log()
// calls cannot interleave bytes (the sink pointer itself is atomic).
constinit util::Mutex g_write_mutex{util::LockLevel::log_write};

// Reads OPPRENTICE_LOG once at static-initialization time.
struct EnvLog {
  EnvLog() {
    if (const char* env = std::getenv("OPPRENTICE_LOG");
        env != nullptr && *env != '\0') {
      set_log_level(parse_log_level(env));
    }
  }
};
const EnvLog g_env_log;

// Values containing spaces, quotes, '=' or control bytes are quoted so
// lines stay unambiguously splittable on spaces.
bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  for (const char c : v) {
    if (c == ' ' || c == '"' || c == '=' ||
        static_cast<unsigned char>(c) < 0x21) {
      return true;
    }
  }
  return false;
}

void append_value(std::string& line, std::string_view v) {
  if (!needs_quoting(v)) {
    line += v;
    return;
  }
  line += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') line += '\\';
    if (c == '\n') {
      line += "\\n";
      continue;
    }
    line += c;
  }
  line += '"';
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kOff: return "off";
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

LogLevel parse_log_level(std::string_view text) {
  if (text == "error") return LogLevel::kError;
  if (text == "warn" || text == "warning") return LogLevel::kWarn;
  if (text == "info") return LogLevel::kInfo;
  if (text == "debug" || text == "1") return LogLevel::kDebug;
  return LogLevel::kOff;
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void set_log_sink(std::ostream* sink) {
  g_sink.store(sink, std::memory_order_relaxed);
}

std::string LogField::format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void log(LogLevel level, std::string_view component, std::string_view event,
         std::initializer_list<LogField> fields) {
  if (!log_enabled(level)) return;
  std::string line = "level=";
  line += to_string(level);
  line += " comp=";
  append_value(line, component);
  line += " event=";
  append_value(line, event);
  for (const auto& field : fields) {
    line += ' ';
    line += field.key;
    line += '=';
    append_value(line, field.value);
  }
  line += '\n';

  // Writing under the lock is its whole job. log_write is the top
  // LockLevel, so no other lock can be taken inside it.
  util::MutexLock lock(g_write_mutex);
  if (std::ostream* sink = g_sink.load(std::memory_order_relaxed)) {
    (*sink) << line << std::flush;
  } else {
    std::fputs(line.c_str(), stderr);
  }
}

}  // namespace opprentice::obs
