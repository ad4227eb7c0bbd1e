#include "perf_gate.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json_util.hpp"
#include "util/ascii_chart.hpp"

namespace opprentice::perf {
namespace {

bool measured(double v) { return v > 0.0; }

// A key that names nothing either document holds.
bool unreadable(const MetricResult& m) {
  return !measured(m.baseline) && !measured(m.fresh);
}

MetricResult gate_metric(const MetricSpec& spec,
                         const util::json::Value& baseline,
                         const util::json::Value& fresh) {
  MetricResult r;
  r.key = spec.key;
  r.tolerance = spec.tolerance;
  r.higher_is_better = spec.higher_is_better;
  r.baseline = baseline.number_at(spec.key, -1.0);
  r.fresh = fresh.number_at(spec.key, -1.0);
  if (unreadable(r)) {
    r.regressed = true;
    r.note = "measured in neither document (misspelled key?)";
    return r;
  }
  if (!measured(r.baseline)) {
    r.note = "newly measured (no baseline)";
    return r;
  }
  if (!measured(r.fresh)) {
    r.regressed = true;
    r.note = "metric disappeared from the fresh run";
    return r;
  }
  r.ratio = r.fresh / r.baseline;
  if (spec.higher_is_better ? r.ratio * (1.0 + spec.tolerance) < 1.0
                            : r.ratio > 1.0 + spec.tolerance) {
    r.regressed = true;
    r.note = (spec.higher_is_better ? "falls short of baseline by more than "
                                    : "exceeds baseline by more than ") +
             util::format_double(100.0 * spec.tolerance, 0) + "%";
  }
  return r;
}

// The ratio a metric may reach: at most 1 + tol lower-is-better, at
// least 1 / (1 + tol) higher-is-better.
std::string limit_text(const MetricResult& m) {
  return m.higher_is_better
             ? ">=" + util::format_double(1.0 / (1.0 + m.tolerance), 2)
             : "<=" + util::format_double(1.0 + m.tolerance, 2);
}

std::string render_summary(const GateResult& result) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& m : result.metrics) {
    rows.push_back(
        {m.key, measured(m.baseline) ? util::format_double(m.baseline, 3) : "-",
         measured(m.fresh) ? util::format_double(m.fresh, 3) : "-",
         m.ratio > 0.0 ? util::format_double(m.ratio, 3) : "-",
         limit_text(m),
         unreadable(m) ? "UNREADABLE" : m.regressed ? "REGRESSED" : "ok"});
  }
  std::string out = util::render_table(
      {"metric", "baseline", "fresh", "ratio", "limit", "status"}, rows);
  for (const auto& m : result.metrics) {
    if (!m.note.empty()) out += "  " + m.key + ": " + m.note + "\n";
  }
  out += result.pass ? "PASS\n" : "FAIL\n";
  return out;
}

}  // namespace

bool parse_metric_spec(std::string_view text, MetricSpec* out) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  std::string_view tolerance = text.substr(eq + 1);
  bool higher_is_better = false;
  if (const std::size_t colon = tolerance.find(':');
      colon != std::string_view::npos) {
    const std::string_view direction = tolerance.substr(colon + 1);
    if (direction != "higher" && direction != "lower") return false;
    higher_is_better = direction == "higher";
    tolerance = tolerance.substr(0, colon);
  }
  // Strict non-negative double parse (std::strtod; no partial parses).
  const std::string number(tolerance);
  if (number.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  if (end != number.c_str() + number.size() || !(v >= 0.0)) return false;
  out->key = std::string(text.substr(0, eq));
  out->tolerance = v;
  out->higher_is_better = higher_is_better;
  return true;
}

GateResult run_gate(const util::json::Value& baseline,
                    const util::json::Value& fresh,
                    const std::vector<MetricSpec>& metrics) {
  GateResult result;
  for (const auto& spec : metrics) {
    result.metrics.push_back(gate_metric(spec, baseline, fresh));
    const MetricResult& m = result.metrics.back();
    if (unreadable(m)) result.unreadable.push_back(m.key);
    result.pass = result.pass && !m.regressed;
  }
  result.summary = render_summary(result);
  return result;
}

std::string history_row(std::string_view label,
                        const util::json::Value& fresh,
                        const std::vector<MetricSpec>& metrics) {
  std::string out = "{\"label\": ";
  obs::append_json_string(out, label);
  for (const auto& spec : metrics) {
    out += ", ";
    obs::append_json_string(out, spec.key);
    out += ": ";
    obs::append_json_double(out, fresh.number_at(spec.key, -1.0));
  }
  out += "}";
  return out;
}

bool append_history(const std::string& path, const std::string& row) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << row << '\n';
  return static_cast<bool>(out);
}

std::string render_history(const std::string& path,
                           const std::vector<MetricSpec>& metrics) {
  std::ifstream in(path);
  if (!in) return "";
  std::vector<util::json::Value> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(util::json::parse(line));
  }
  if (rows.empty()) return "";
  std::string out = "history (" + std::to_string(rows.size()) +
                    " runs, oldest first):\n";
  for (const auto& spec : metrics) {
    // history_row writes each metric under its flat key, dots included,
    // so look it up as one member, not as a dotted path.
    auto value_in = [&spec](const util::json::Value& row) {
      const auto* v = row.find(spec.key);
      return v != nullptr && v->is_number() ? v->number : -1.0;
    };
    std::vector<double> ys;
    ys.reserve(rows.size());
    for (const auto& row : rows) {
      const double v = value_in(row);
      ys.push_back(measured(v) ? v
                               : std::numeric_limits<double>::quiet_NaN());
    }
    double last = -1.0;
    std::string last_label = "-";
    for (std::size_t i = rows.size(); i-- > 0;) {
      if (const double v = value_in(rows[i]); measured(v)) {
        last = v;
        const auto* label = rows[i].find("label");
        if (label != nullptr && label->is_string()) {
          last_label = label->string;
        }
        break;
      }
    }
    out += "  " + spec.key + ": " + util::render_sparkline(ys) + " last " +
           (measured(last) ? util::format_double(last, 3) : "-") + " (" +
           last_label + ")\n";
  }
  return out;
}

int self_test() {
  // A perfbench result line: one lower-is-better lag (-1 leaves it out)
  // and one higher-is-better throughput.
  const auto result_line = [](double lag_p50_ms, double points_per_s) {
    std::ostringstream doc;
    doc << "{\"correct\": true, \"metrics\": {";
    if (lag_p50_ms > 0.0) {
      doc << "\"lag_p50_ms\": {\"value\": " << lag_p50_ms
          << ", \"unit\": \"ms\"}, ";
    }
    doc << "\"points_per_s\": {\"value\": " << points_per_s
        << ", \"unit\": \"points/s\"}}}";
    return util::json::parse(doc.str());
  };
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "perf_gate self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  const auto baseline = result_line(0.3, 70000.0);
  const std::vector<MetricSpec> lag = {{"metrics.lag_p50_ms.value", 0.25}};

  // Identical runs pass; small drift inside the tolerance passes.
  expect(run_gate(baseline, baseline, lag).pass,
         "identical baseline/fresh must pass");
  expect(run_gate(baseline, result_line(0.33, 70000.0), lag).pass,
         "10% drift must pass the 25% tolerance");

  // A 2x lag regression fails, and names the metric.
  const auto regressed = run_gate(baseline, result_line(0.6, 70000.0), lag);
  expect(!regressed.pass && regressed.metrics.size() == 1 &&
             regressed.metrics[0].regressed &&
             regressed.metrics[0].key == "metrics.lag_p50_ms.value" &&
             regressed.unreadable.empty(),
         "a 2x lag must fail and be flagged");
  // A generous tolerance lets the same pair pass.
  expect(run_gate(baseline, result_line(0.6, 70000.0),
                  {{"metrics.lag_p50_ms.value", 1.5}})
             .pass,
         "a 150% tolerance must admit the 2x run");

  // A metric disappearing (-1) from the fresh run fails ...
  expect(!run_gate(baseline, result_line(-1.0, 70000.0), lag).pass,
         "a disappeared metric must fail");
  // ... while a metric the baseline never had passes.
  expect(run_gate(result_line(-1.0, 70000.0), baseline, lag).pass,
         "a newly measured metric must pass");

  // A key neither document holds (a typo in CI's gate step) is
  // unreadable, not "unmeasured, so fine": the gate fails and names it.
  const auto typo = run_gate(
      baseline, baseline,
      {{"metrics.lag_p50_ms.value", 1.0}, {"metrics.lag_p05_ms.value", 1.0}});
  expect(!typo.pass && typo.unreadable.size() == 1 &&
             typo.unreadable[0] == "metrics.lag_p05_ms.value" &&
             typo.summary.find("metrics.lag_p05_ms.value: measured in "
                               "neither document") != std::string::npos,
         "a misspelled key must be unreadable and fail the gate");

  // A higher-is-better metric (a throughput) regresses when it falls, by
  // the same ratio a lower-is-better one may rise.
  MetricSpec throughput;
  expect(parse_metric_spec("metrics.points_per_s.value=1.0:higher",
                           &throughput) &&
             throughput.key == "metrics.points_per_s.value" &&
             throughput.tolerance == 1.0 && throughput.higher_is_better,
         "key=tol:higher must parse as a higher-is-better metric");
  expect(run_gate(baseline, result_line(0.3, 150000.0), {throughput}).pass,
         "a throughput more than doubled must pass");
  expect(run_gate(baseline, result_line(0.3, 40000.0), {throughput}).pass,
         "a throughput inside the tolerance must pass");
  const auto slow =
      run_gate(baseline, result_line(0.3, 30000.0), {throughput});
  expect(!slow.pass && slow.metrics[0].regressed &&
             slow.summary.find(">=0.50") != std::string::npos,
         "a throughput below baseline / (1 + tol) must fail");
  // The default direction is unchanged: the same numbers as a
  // lower-is-better metric pass the fall and fail the doubling.
  MetricSpec lower;
  expect(parse_metric_spec("metrics.points_per_s.value=1.0", &lower) &&
             !lower.higher_is_better &&
             parse_metric_spec("metrics.points_per_s.value=1.0:lower",
                               &lower) &&
             !lower.higher_is_better,
         "key=tol and key=tol:lower must parse as lower-is-better");
  expect(run_gate(baseline, result_line(0.3, 30000.0), {lower}).pass &&
             !run_gate(baseline, result_line(0.3, 150000.0), {lower}).pass,
         "a lower-is-better metric must fail on a rise, not a fall");
  MetricSpec rejected;
  expect(!parse_metric_spec("metrics.points_per_s.value=1.0:faster",
                            &rejected) &&
             !parse_metric_spec("=1.0", &rejected) &&
             !parse_metric_spec("key=:higher", &rejected) &&
             !parse_metric_spec("key=-1", &rejected) &&
             !parse_metric_spec("key", &rejected),
         "malformed metric specs must be rejected");

  // History round-trip: rows store each dotted key flat, and the render
  // finds both values and the last label. A row from before the key
  // existed (bare keys, as the committed history's oldest rows) is a gap.
  const std::string row = history_row("p1", result_line(0.25, 1.0), lag);
  expect(row == "{\"label\": \"p1\", \"metrics.lag_p50_ms.value\": 0.25}",
         "a history row must hold the label and each metric's flat key");
  const std::string path =
      (std::filesystem::temp_directory_path() / "opprentice_perf_selftest.jsonl")
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  expect(append_history(path, row) &&
             append_history(path, "{\"label\": \"old\", "
                                  "\"extraction_us_per_point\": 30.0}") &&
             append_history(path,
                            history_row("p2", result_line(0.5, 1.0), lag)),
         "history append must succeed");
  const std::string rendered = render_history(path, lag);
  expect(rendered.find("3 runs") != std::string::npos &&
             rendered.find("metrics.lag_p50_ms.value: ▁ █ last 0.500 (p2)") !=
                 std::string::npos,
         "history render must show both values, the gap and the last "
         "label");
  std::filesystem::remove(path, ec);

  if (failures == 0) std::printf("perf_gate self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace opprentice::perf
