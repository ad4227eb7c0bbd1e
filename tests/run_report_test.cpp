// Run-report manifest, flight recorder, and the JSON parser they are
// validated with (DESIGN.md §5h).
//
// The schema case doubles as the golden test for
// "opprentice.run_report/2": it renders a populated report and re-parses
// it with util::json, pinning every top-level key and the row shapes
// downstream consumers (CI's network smoke, postmortems) rely on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "util/json.hpp"

namespace {

using namespace opprentice;
namespace json = util::json;

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
  const auto doc = json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "q\"\\\né", "neg": -2e3})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_at("a", 0.0), 1.5);
  const auto* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_FALSE(b->array[1].boolean);
  EXPECT_TRUE(b->array[2].is_null());
  const auto* s = doc.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "q\"\\\n\xc3\xa9");
  EXPECT_DOUBLE_EQ(doc.number_at("neg", 0.0), -2000.0);
}

TEST(JsonParser, DottedPathLookup) {
  const auto doc =
      json::parse(R"({"sec58": {"inner": {"x": 4}, "ok": true}})");
  EXPECT_DOUBLE_EQ(doc.number_at("sec58.inner.x", -1.0), 4.0);
  EXPECT_TRUE(doc.bool_at("sec58.ok", false));
  EXPECT_EQ(doc.find_path("sec58.missing.x"), nullptr);
  EXPECT_DOUBLE_EQ(doc.number_at("sec58.missing", 9.0), 9.0);
}

TEST(JsonParser, RejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\": 1,}"), std::runtime_error);
  try {
    (void)json::parse("[1, x]");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    // The offset points at the bad token so a corrupt bench file is
    // debuggable from the message alone.
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(FlightRecorder, SortsDeterministicallyAndReportsOverflow) {
  obs::FlightRecorder recorder(/*capacity=*/3);
  recorder.record_event("b", "second", 2, "x");
  recorder.record_event("a", "first", 9);
  recorder.record_event("a", "first", 1);
  const auto sorted = recorder.sorted_events();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].category, "a");
  EXPECT_EQ(sorted[0].key, 1u);
  EXPECT_EQ(sorted[1].key, 9u);
  EXPECT_EQ(sorted[2].category, "b");
  EXPECT_EQ(recorder.dropped_count(), 0u);

  // A fourth event overwrites the oldest and is reported as dropped, so
  // a truncated postmortem is never mistaken for a complete one.
  recorder.record_event("c", "third", 3);
  EXPECT_EQ(recorder.event_count(), 3u);
  EXPECT_EQ(recorder.dropped_count(), 1u);
  const std::string dump = recorder.dump_json();
  EXPECT_NE(dump.find("\"dropped\": 1"), std::string::npos);
  EXPECT_EQ(dump.find("\"b\""), std::string::npos);  // oldest evicted

  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.dropped_count(), 0u);
}

TEST(FlightRecorder, DumpJsonParsesAndDumpTextMatchesOrder) {
  obs::FlightRecorder recorder(8);
  recorder.record_event("ingest", "repair", 7, "series=k");
  recorder.record_event("detector", "quarantine", 3, "configuration=svd");
  const auto doc = json::parse(recorder.dump_json());
  EXPECT_DOUBLE_EQ(doc.number_at("capacity", -1.0), 8.0);
  EXPECT_DOUBLE_EQ(doc.number_at("dropped", -1.0), 0.0);
  const auto* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].find("category")->string, "detector");
  EXPECT_EQ(events->array[1].find("category")->string, "ingest");
  const std::string text = recorder.dump_text();
  EXPECT_LT(text.find("detector.quarantine"), text.find("ingest.repair"));
}

// The schema-golden case: every "opprentice.run_report/2" top-level key
// must be present with the documented shape. Additive evolution only —
// if this test has to delete or retype an expectation, bump the schema
// version instead.
TEST(RunReport, SchemaGolden) {
  obs::FlightRecorder::instance().clear();
  obs::flight_record("detector", "quarantine", 4, "configuration=svd");

  obs::RunReport report("unit_test", "train");
  report.set_threads(2);
  report.set_seed("forest", 42);
  report.set_seed("fault_plan", 7);
  report.add_stage("extract", 12.5);
  report.add_stage("train", 3.25);
  report.set_field("repair_policy", "drop");
  report.set_field("exit_status", std::uint64_t{0});
  report.set_field("cache_hit", true);
  report.set_field("speedup", 1.5);

  const auto doc = json::parse(report.to_json());
  EXPECT_EQ(doc.find("schema")->string, "opprentice.run_report/2");
  // Exactly the documented top-level keys (util::json orders them by
  // name).
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "build", "command", "counters", "extra",
                      "flight_recorder", "resilience", "schema", "seeds",
                      "stages", "threads", "tool"}));
  EXPECT_EQ(doc.find("tool")->string, "unit_test");
  EXPECT_EQ(doc.find("command")->string, "train");

  ASSERT_NE(doc.find("build"), nullptr);
  EXPECT_TRUE(doc.find_path("build.compiler")->is_string());
  EXPECT_TRUE(doc.find_path("build.build_type")->is_string());
  EXPECT_GT(doc.number_at("build.cxx_standard", 0.0), 201700.0);

  EXPECT_DOUBLE_EQ(doc.number_at("threads.configured", -1.0), 2.0);
  EXPECT_GE(doc.number_at("threads.hardware_concurrency", -1.0), 0.0);

  EXPECT_DOUBLE_EQ(doc.number_at("seeds.forest", -1.0), 42.0);
  EXPECT_DOUBLE_EQ(doc.number_at("seeds.fault_plan", -1.0), 7.0);

  const auto* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array.size(), 2u);
  EXPECT_EQ(stages->array[0].find("name")->string, "extract");
  EXPECT_DOUBLE_EQ(stages->array[0].number_at("ms", -1.0), 12.5);

  ASSERT_TRUE(doc.find("counters")->is_object());
  ASSERT_NE(doc.find_path("resilience.faults"), nullptr);
  ASSERT_NE(doc.find_path("resilience.ingest"), nullptr);
  ASSERT_NE(doc.find_path("resilience.detector"), nullptr);
  ASSERT_NE(doc.find_path("resilience.net"), nullptr);
  ASSERT_NE(doc.find_path("resilience.net_sources"), nullptr);
  EXPECT_GE(doc.number_at("resilience.forest_train_failures", -1.0), 0.0);


  const auto* flight = doc.find("flight_recorder");
  ASSERT_NE(flight, nullptr);
  ASSERT_EQ(flight->find("events")->array.size(), 1u);
  EXPECT_EQ(flight->find("events")->array[0].find("name")->string,
            "quarantine");

  EXPECT_EQ(doc.find_path("extra.repair_policy")->string, "drop");
  EXPECT_DOUBLE_EQ(doc.number_at("extra.exit_status", -1.0), 0.0);
  EXPECT_TRUE(doc.bool_at("extra.cache_hit", false));
  EXPECT_DOUBLE_EQ(doc.number_at("extra.speedup", -1.0), 1.5);

  obs::FlightRecorder::instance().clear();
}

TEST(RunReport, StageTimerAppendsOneRow) {
  obs::RunReport report("unit_test", "t");
  {
    obs::StageTimer timer(report, "scoped");
  }
  const auto doc = json::parse(report.to_json());
  const auto* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array.size(), 1u);
  EXPECT_EQ(stages->array[0].find("name")->string, "scoped");
  EXPECT_GE(stages->array[0].number_at("ms", -1.0), 0.0);
}

}  // namespace
