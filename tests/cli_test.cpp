// Tests for the opprentice_cli subcommands (linked directly against
// tools/cli_commands.cpp; file I/O goes through a temp directory).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <sys/wait.h>

#include "../tools/cli_commands.hpp"
#include "core/fleet_engine.hpp"

namespace {

using namespace opprentice::cli;
namespace core = opprentice::core;

Args make_args(const std::string& command,
               std::map<std::string, std::string> options) {
  Args args;
  args.command = command;
  args.options = std::move(options);
  return args;
}

class CliWorkflow : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each TEST_F as its own process, often
    // in parallel, so a shared path races (SetUp's remove_all deletes a
    // sibling test's files mid-run).
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("opprentice-cli-test-") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Writes a two-point KPI and a labels file whose second data row is
  // `row`; returns the labels path.
  std::string write_bad_labels(const std::string& row) const {
    std::ofstream kpi(path("kpi.csv"));
    kpi << "timestamp,value\n0,1\n600,2\n";
    std::ofstream labels(path("labels.csv"));
    labels << "window_begin,window_end\n0,2\n" << row << "\n";
    return path("labels.csv");
  }

  // Writes a KPI whose second data row has timestamp `t`; returns its
  // path.
  std::string write_bad_kpi(const std::string& t) const {
    std::ofstream kpi(path("kpi.csv"));
    kpi << "timestamp,value\n0,1\n" << t << ",2\n1200,3\n";
    return path("kpi.csv");
  }

  std::filesystem::path dir_;
};

TEST(ParseArgs, CommandAndOptions) {
  const char* argv[] = {"cli", "train", "--kpi", "a.csv", "--trees", "12"};
  const Args args = parse_args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.command, "train");
  EXPECT_EQ(args.get("kpi"), "a.csv");
  EXPECT_EQ(args.get_size("trees", 0), 12u);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(ParseArgs, MissingValueThrows) {
  const char* argv[] = {"cli", "train", "--kpi"};
  EXPECT_THROW(parse_args(3, const_cast<char**>(argv)), std::runtime_error);
}

TEST(ParseArgs, NonOptionTokenThrows) {
  const char* argv[] = {"cli", "train", "oops"};
  EXPECT_THROW(parse_args(3, const_cast<char**>(argv)), std::runtime_error);
}

// Every command names the flags it reads; any other flag is refused by
// name, and the CLI exits 2 before running the command on defaults.
TEST(ParseArgs, UnknownFlagIsNamed) {
  const char* bad[] = {"cli", "serve", "--apply-budget", "1"};
  EXPECT_EQ(unknown_flag(parse_args(4, const_cast<char**>(bad))),
            "apply-budget");
  const char* good[] = {"cli",        "serve",     "--listen", "uds:s.sock",
                        "--interval", "600",       "--exit-after-byes",
                        "1",          "--report",  "s.json"};
  EXPECT_EQ(unknown_flag(parse_args(10, const_cast<char**>(good))), "");
  // A flag of another command is unknown here.
  const char* other[] = {"cli", "train", "--connect", "uds:s.sock"};
  EXPECT_EQ(unknown_flag(parse_args(4, const_cast<char**>(other))),
            "connect");
}

TEST(ParseArgs, UnknownFlagExitsTwo) {
  const std::string cli = OPPRENTICE_CLI_PATH;
  const int status =
      std::system((cli + " serve --apply-budget 1 2>/dev/null").c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST_F(CliWorkflow, GenerateProducesBothFiles) {
  ASSERT_EQ(cmd_generate(make_args("generate",
                                   {{"kpi", "srt"},
                                    {"weeks", "6"},
                                    {"out", path("kpi.csv")},
                                    {"labels", path("labels.csv")}})),
            0);
  EXPECT_TRUE(std::filesystem::exists(path("kpi.csv")));
  EXPECT_TRUE(std::filesystem::exists(path("labels.csv")));
}

// serve runs the engine perfbench's paper_stream measures: the standard
// bank on the fleet's grid, one week of history, library defaults.
TEST(Serve, EngineOptionsAreThePaperStreamConfiguration) {
  const core::FleetOptions options = serve_fleet_options(600);
  const core::FleetOptions defaults;
  EXPECT_EQ(options.ctx.points_per_day, 144u);
  EXPECT_EQ(options.ctx.points_per_week, 1008u);
  EXPECT_EQ(options.history_capacity, 1008u);
  EXPECT_FALSE(options.detector_factory);
  EXPECT_EQ(options.retrain_interval, 0u);  // one week of points
  EXPECT_EQ(options.quarantine_after, defaults.quarantine_after);
  EXPECT_EQ(options.scheduler_seed, defaults.scheduler_seed);
  EXPECT_EQ(options.forest.num_trees, 48u);
  EXPECT_EQ(options.forest.seed, 42u);
  EXPECT_EQ(serve_fleet_options(3600).ctx.points_per_week, 168u);
}

// The interval is the fleet's grid, so serve refuses one repair_series
// would refuse, before it binds anything: the endpoint is unbindable, so
// a serve that got that far would throw instead of returning 2.
TEST(Serve, RejectsAnIntervalThatDoesNotDivideADay) {
  for (const char* interval : {"0", "7", "86401", "172800"}) {
    EXPECT_EQ(cmd_serve(make_args(
                  "serve", {{"interval", interval},
                            {"listen", "uds:/nonexistent-dir/serve.sock"}})),
              2)
        << interval;
  }
}

TEST_F(CliWorkflow, GenerateRejectsUnknownKpi) {
  EXPECT_EQ(cmd_generate(make_args("generate", {{"kpi", "nope"}})), 2);
}

TEST_F(CliWorkflow, EndToEndTrainDetectEvaluate) {
  ASSERT_EQ(cmd_generate(make_args("generate",
                                   {{"kpi", "srt"},
                                    {"weeks", "8"},
                                    {"out", path("kpi.csv")},
                                    {"labels", path("labels.csv")}})),
            0);
  ASSERT_EQ(cmd_profile(make_args("profile", {{"kpi", path("kpi.csv")}})), 0);
  ASSERT_EQ(cmd_train(make_args("train",
                                {{"kpi", path("kpi.csv")},
                                 {"labels", path("labels.csv")},
                                 {"model", path("m.rf")},
                                 {"trees", "16"}})),
            0);
  ASSERT_TRUE(std::filesystem::exists(path("m.rf")));
  ASSERT_EQ(cmd_detect(make_args("detect",
                                 {{"kpi", path("kpi.csv")},
                                  {"model", path("m.rf")},
                                  {"out", path("det.csv")}})),
            0);
  // In-sample detection on a learnable KPI must satisfy the preference
  // (exit code 0 from evaluate).
  EXPECT_EQ(cmd_evaluate(make_args("evaluate",
                                   {{"detections", path("det.csv")},
                                    {"labels", path("labels.csv")}})),
            0);
}

TEST_F(CliWorkflow, DetectHonorsExplicitCthld) {
  ASSERT_EQ(cmd_generate(make_args("generate",
                                   {{"kpi", "srt"},
                                    {"weeks", "6"},
                                    {"out", path("kpi.csv")},
                                    {"labels", path("labels.csv")}})),
            0);
  ASSERT_EQ(cmd_train(make_args("train",
                                {{"kpi", path("kpi.csv")},
                                 {"labels", path("labels.csv")},
                                 {"model", path("m.rf")},
                                 {"trees", "8"}})),
            0);
  // cThld above 1.0: nothing can be flagged.
  ASSERT_EQ(cmd_detect(make_args("detect",
                                 {{"kpi", path("kpi.csv")},
                                  {"model", path("m.rf")},
                                  {"cthld", "1.5"},
                                  {"out", path("det.csv")}})),
            0);
  std::ifstream det(path("det.csv"));
  std::string line;
  std::getline(det, line);  // header
  while (std::getline(det, line)) {
    EXPECT_EQ(line.back(), '0') << line;  // is_anomaly column
  }
}

TEST_F(CliWorkflow, TrainFailsWithoutAnomalies) {
  // A labels file with no windows: training must refuse, not crash.
  ASSERT_EQ(cmd_generate(make_args("generate",
                                   {{"kpi", "srt"},
                                    {"weeks", "6"},
                                    {"out", path("kpi.csv")},
                                    {"labels", path("labels.csv")}})),
            0);
  std::ofstream empty(path("empty.csv"));
  empty << "window_begin,window_end\n";
  empty.close();
  EXPECT_EQ(cmd_train(make_args("train",
                                {{"kpi", path("kpi.csv")},
                                 {"labels", path("empty.csv")},
                                 {"model", path("m.rf")}})),
            1);
}

// Runs `command`, which must throw naming `file` and its second data row.
template <typename Command>
void expect_row_rejection(const std::string& file, Command command) {
  try {
    command();
    ADD_FAILURE() << "accepted " << file;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(file + ": row 2"), std::string::npos)
        << e.what();
  }
}

TEST_F(CliWorkflow, TrainRejectsMalformedLabelRows) {
  for (const char* row : {"-1,5", "nan,3", "2.5,4", "9,3"}) {
    SCOPED_TRACE(row);
    const std::string labels = write_bad_labels(row);
    expect_row_rejection(labels, [&] {
      cmd_train(make_args("train", {{"kpi", path("kpi.csv")},
                                    {"labels", labels},
                                    {"model", path("m.rf")}}));
    });
  }
}

TEST_F(CliWorkflow, AgentRejectsMalformedLabelRows) {
  const std::string labels = write_bad_labels("2.5,4");
  // The endpoint cannot be reached; the labels must be rejected first.
  expect_row_rejection(labels, [&] {
    cmd_agent(make_args("agent", {{"kpi", path("kpi.csv")},
                                  {"labels", labels},
                                  {"connect", "uds:" + path("none/x.sock")},
                                  {"max-attempts", "0"},
                                  {"backoff-base", "1"}}));
  });
}

TEST_F(CliWorkflow, ProfileRejectsUncheckedTimestamps) {
  for (const char* t : {"nan", "1e30", "600.5"}) {
    SCOPED_TRACE(t);
    const std::string kpi = write_bad_kpi(t);
    expect_row_rejection(
        kpi, [&] { cmd_profile(make_args("profile", {{"kpi", kpi}})); });
  }
}

TEST_F(CliWorkflow, AgentRejectsUncheckedTimestamps) {
  for (const char* t : {"nan", "1e30"}) {
    SCOPED_TRACE(t);
    const std::string kpi = write_bad_kpi(t);
    // The endpoint cannot be reached; the timestamps must be rejected
    // first.
    expect_row_rejection(kpi, [&] {
      cmd_agent(make_args("agent", {{"kpi", kpi},
                                    {"connect", "uds:" + path("none/x.sock")},
                                    {"max-attempts", "0"},
                                    {"backoff-base", "1"}}));
    });
  }
}

TEST_F(CliWorkflow, MissingFilesReportErrors) {
  EXPECT_THROW(cmd_profile(make_args("profile", {{"kpi", path("no.csv")}})),
               std::exception);
  EXPECT_THROW(cmd_detect(make_args("detect",
                                    {{"kpi", path("no.csv")},
                                     {"model", path("no.rf")}})),
               std::exception);
}

}  // namespace
