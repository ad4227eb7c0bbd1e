// Unit tests for the shared linter infrastructure (tools/lint_common.*):
// report formatting pinned against golden files, SARIF escaping and
// structure, TempTree edge cases, and source-tree walking.
//
// Golden files live in tests/golden/ (path injected via
// OPPRENTICE_GOLDEN_DIR). To update after an intentional format change:
//   OPPRENTICE_REGENERATE_GOLDEN=1 ./lint_common_test
// then review the diff like any other code change.
#include "tools/lint_common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using opprentice::tools::format_report;
using opprentice::tools::format_sarif;
using opprentice::tools::LintReport;
using opprentice::tools::list_cpp_sources;
using opprentice::tools::TempTree;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Compares `actual` against the named golden file, regenerating it when
// OPPRENTICE_REGENERATE_GOLDEN is set.
void expect_matches_golden(const std::string& actual, const char* name) {
  const std::filesystem::path golden =
      std::filesystem::path(OPPRENTICE_GOLDEN_DIR) / name;
  if (std::getenv("OPPRENTICE_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(golden);
    out << actual;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(golden))
      << "missing golden file " << golden
      << " (run with OPPRENTICE_REGENERATE_GOLDEN=1 to create)";
  EXPECT_EQ(actual, read_file(golden)) << "output diverged from " << name;
}

// The fixed report every formatting test renders: one anchored issue, one
// unanchored issue, one repeated rule (exercises SARIF rule dedup).
LintReport sample_report() {
  LintReport report;
  report.checks_run = 5;
  report.fail_at("alloc", "sized construction of 'vector v' on the hot path",
                 "src/core/pipeline.cpp", 42);
  report.fail("min-roots", "expected at least 8 hot roots, found 2");
  report.fail_at("alloc", "call to heap-allocating 'make_unique'",
                 "src/core/pipeline.cpp", 57);
  return report;
}

// ---- format_report ----

TEST(FormatReport, CleanReportIsOneLine) {
  LintReport report;
  report.checks_run = 3;
  EXPECT_EQ(format_report(report, false), "OK: 3 checks, 0 issues\n");
}

TEST(FormatReport, SingularIssueCount) {
  LintReport report;
  report.checks_run = 1;
  report.fail("rule", "message");
  const std::string text = format_report(report, false);
  EXPECT_NE(text.find("1 issue\n"), std::string::npos);
}

TEST(FormatReport, FailingReportMatchesGolden) {
  expect_matches_golden(format_report(sample_report(), false),
                        "report_failing.txt");
}

TEST(FormatReport, VerboseAndNonVerboseAgreeWhenFailing) {
  // Issues print whenever present; --verbose only changes clean runs.
  EXPECT_EQ(format_report(sample_report(), false),
            format_report(sample_report(), true));
}

// ---- format_sarif ----

TEST(FormatSarif, FailingReportMatchesGolden) {
  expect_matches_golden(
      format_sarif(sample_report(), "opprentice_check", "src/"),
      "report_failing.sarif");
}

TEST(FormatSarif, EmptyReportMatchesGolden) {
  LintReport report;
  report.checks_run = 7;
  expect_matches_golden(format_sarif(report, "opprentice_check"),
                        "report_empty.sarif");
}

TEST(FormatSarif, StripPrefixMakesUrisRepoRelative) {
  const std::string sarif =
      format_sarif(sample_report(), "tool", "src/core/");
  EXPECT_NE(sarif.find("\"uri\": \"pipeline.cpp\""), std::string::npos);
}

TEST(FormatSarif, NonMatchingPrefixLeavesUriIntact) {
  const std::string sarif = format_sarif(sample_report(), "tool", "bench/");
  EXPECT_NE(sarif.find("\"uri\": \"src/core/pipeline.cpp\""),
            std::string::npos);
}

TEST(FormatSarif, RuleTableDeduplicatesInFirstAppearanceOrder) {
  const std::string sarif = format_sarif(sample_report(), "tool");
  const std::size_t first = sarif.find("{\"id\": \"alloc\"}");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(sarif.find("{\"id\": \"alloc\"}", first + 1), std::string::npos);
  EXPECT_LT(first, sarif.find("{\"id\": \"min-roots\"}"));
}

TEST(FormatSarif, EscapesQuotesBackslashesAndControlChars) {
  LintReport report;
  report.fail("rule", "quote \" backslash \\ newline \n tab \t bell \x07");
  const std::string sarif = format_sarif(report, "tool");
  EXPECT_NE(sarif.find("quote \\\" backslash \\\\ newline \\n tab \\t "
                       "bell \\u0007"),
            std::string::npos);
}

TEST(FormatSarif, ZeroLineIsClampedToOne) {
  LintReport report;
  report.fail_at("rule", "message", "a.cpp", 0);
  const std::string sarif = format_sarif(report, "tool");
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

// ---- TempTree ----

TEST(TempTree, PlantCreatesNestedDirectories) {
  const TempTree tree("lint-common-test");
  const auto planted =
      tree.plant("a/b/c/deep.cpp", "int deep() { return 1; }\n");
  EXPECT_TRUE(std::filesystem::exists(planted));
  EXPECT_EQ(read_file(planted), "int deep() { return 1; }\n");
}

TEST(TempTree, PlantAcceptsEmptyFiles) {
  const TempTree tree("lint-common-test");
  const auto planted = tree.plant("empty.hpp", "");
  ASSERT_TRUE(std::filesystem::exists(planted));
  EXPECT_EQ(std::filesystem::file_size(planted), 0u);
  // Empty sources must also survive the walk + scan path.
  LintReport walk;
  const auto files = list_cpp_sources({tree.root().string()}, &walk);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(walk.ok());
}

TEST(TempTree, ConcurrentInstancesGetDistinctRoots) {
  const TempTree a("lint-common-test");
  const TempTree b("lint-common-test");
  EXPECT_NE(a.root(), b.root());
}

TEST(TempTree, DestructorRemovesEverything) {
  std::filesystem::path root;
  {
    const TempTree tree("lint-common-test");
    root = tree.root();
    tree.plant("x/y.cpp", "int y;\n");
    ASSERT_TRUE(std::filesystem::exists(root));
  }
  EXPECT_FALSE(std::filesystem::exists(root));
}

TEST(TempTree, OverwritingAPlantedFileKeepsLatestContent) {
  const TempTree tree("lint-common-test");
  tree.plant("f.cpp", "int old_version;\n");
  const auto planted = tree.plant("f.cpp", "int new_version;\n");
  EXPECT_EQ(read_file(planted), "int new_version;\n");
}

// ---- list_cpp_sources ----

TEST(ListCppSources, SortedAndFilteredWalk) {
  const TempTree tree("lint-common-test");
  tree.plant("src/b.cpp", "int b;\n");
  tree.plant("src/a.hpp", "int a;\n");
  tree.plant("src/notes.md", "not C++\n");
  tree.plant("src/build/generated.cpp", "int skip_me;\n");
  LintReport report;
  const auto files = list_cpp_sources({(tree.root() / "src").string()},
                                      &report);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_TRUE(files[0].string().ends_with("a.hpp"));
  EXPECT_TRUE(files[1].string().ends_with("b.cpp"));
  EXPECT_TRUE(report.ok());
}

TEST(ListCppSources, MissingRootIsReportedNotFatal) {
  LintReport report;
  const auto files = list_cpp_sources({"/nonexistent/opprentice"}, &report);
  EXPECT_TRUE(files.empty());
  EXPECT_FALSE(report.ok());
}

}  // namespace
