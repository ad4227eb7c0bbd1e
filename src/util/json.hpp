// Minimal recursive-descent JSON parser for the repo's own machine
// outputs (bench --json envelopes, run reports, BENCH_history.jsonl).
//
// Deliberately small: parses the JSON our emitters (obs/json_util.hpp)
// produce plus standard escapes; numbers become double. Not a streaming
// parser and not tolerant of extensions (no comments, no trailing
// commas). Errors throw std::runtime_error with a byte offset so
// `opprentice_perf` can point at a corrupt bench file precisely.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace opprentice::util::json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  // std::map keeps member iteration deterministic (sorted by key).
  std::map<std::string, Value, std::less<>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_bool() const { return type == Type::kBool; }

  // Member lookup on an object; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  // Dotted-path lookup ("metrics.lag_p50_ms.value"); nullptr when
  // any hop is absent. Keys themselves must not contain '.'.
  const Value* find_path(std::string_view path) const;

  // Number at a dotted path, or `fallback` when absent / not a number.
  double number_at(std::string_view path, double fallback) const;
  // Bool at a dotted path, or `fallback` when absent / not a bool.
  bool bool_at(std::string_view path, bool fallback) const;
};

// Parses one complete JSON document (throws std::runtime_error on
// malformed input or trailing garbage).
Value parse(std::string_view text);

// Reads and parses a JSON file; throws std::runtime_error when the file
// cannot be read or does not parse.
Value parse_file(const std::string& path);

}  // namespace opprentice::util::json
