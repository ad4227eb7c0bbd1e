// Unit tests for the determinism/concurrency contract rules
// (tools/check_rules.*): every rule fires on a planted violation, reasoned
// suppressions are honored, reason-less suppressions are errors, and the
// tree walk only visits C++ sources. Violating code lives in string
// literals here — which is also how the checker itself stays clean when it
// scans its own sources.
#include "tools/check_rules.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using opprentice::tools::check_rules;
using opprentice::tools::check_self_test;
using opprentice::tools::check_source;
using opprentice::tools::check_tree;
using opprentice::tools::CheckViolation;
using opprentice::tools::format_report;
using opprentice::tools::LintReport;
using opprentice::tools::TempTree;

std::vector<CheckViolation> scan(const std::string& content) {
  return check_source("src/probe.cpp", content);
}

TEST(CheckRules, RuleTableHasTwelveStableIds) {
  std::vector<std::string> ids;
  for (const auto& rule : check_rules()) ids.push_back(rule.id);
  const std::vector<std::string> expected = {
      "random-device",       "rand",           "wall-clock-seed",
      "raw-thread",          "raw-mutex",      "raw-socket",
      "unordered-iteration", "unguarded-static", "fp-reduction",
      "unchecked-stod",      "layering",       "unused-suppression"};
  EXPECT_EQ(ids, expected);
}

TEST(CheckRules, FlagsRandomDevice) {
  const auto vs = scan(
      "#include <random>\n"
      "std::uint32_t entropy() {\n"
      "  std::random_device dev;\n"
      "  return dev();\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "random-device");
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(CheckRules, FlagsRandAndSrand) {
  const auto vs = scan(
      "void mix() {\n"
      "  std::srand(42);\n"
      "  int x = std::rand();\n"
      "  (void)x;\n"
      "}\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "rand");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_EQ(vs[1].rule, "rand");
  EXPECT_EQ(vs[1].line, 3u);
}

TEST(CheckRules, MemberNamedRandIsNotLibcRand) {
  EXPECT_TRUE(scan("int f(Gen& g) { return g.rand(); }\n").empty());
}

TEST(CheckRules, PatternInsideStringLiteralDoesNotFire) {
  EXPECT_TRUE(
      scan("const char* kDoc = \"never call std::rand() here\";\n").empty());
}

TEST(CheckRules, FlagsTimeSeedingViaCtime) {
  const auto vs = scan(
      "unsigned pick() {\n"
      "  const unsigned seed = static_cast<unsigned>(std::time(nullptr));\n"
      "  return seed;\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "wall-clock-seed");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(CheckRules, FlagsChronoSeedingOfRng) {
  const auto vs = scan(
      "void reseed_from_clock(util::Rng& rng) {\n"
      "  rng.reseed(std::chrono::steady_clock::now()"
      ".time_since_epoch().count());\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "wall-clock-seed");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(CheckRules, TimingMeasurementWithoutSeedIsFine) {
  EXPECT_TRUE(
      scan("void bench() {\n"
           "  const auto start = std::chrono::steady_clock::now();\n"
           "  work();\n"
           "  report(std::chrono::steady_clock::now() - start);\n"
           "}\n")
          .empty());
}

TEST(CheckRules, FlagsRawThreadConstruction) {
  const auto vs = scan(
      "#include <thread>\n"
      "void spawn(void (*task)()) {\n"
      "  std::thread runner(task);\n"
      "  runner.join();\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-thread");
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(CheckRules, FlagsDetach) {
  const auto vs = scan("void f(Worker& w) { w.detach(); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-thread");
}

TEST(CheckRules, ThreadPoolImplementationIsExempt) {
  const auto vs = check_source(
      "src/util/thread_pool.cpp",
      "void Pool::start() { workers_.emplace_back(std::thread(loop)); }\n");
  EXPECT_TRUE(vs.empty());
}

TEST(CheckRules, QualifiedThreadNamesAreFine) {
  EXPECT_TRUE(
      scan("std::thread::id current() { return std::this_thread::get_id(); }\n")
          .empty());
}

TEST(CheckRules, FlagsRawMutexAndLockGuard) {
  const auto vs = scan(
      "#include <mutex>\n"
      "std::mutex g_m;\n"
      "void f() {\n"
      "  std::lock_guard<std::mutex> hold(g_m);\n"
      "}\n");
  ASSERT_EQ(vs.size(), 3u);  // std::mutex decl + lock_guard + its argument
  for (const auto& v : vs) EXPECT_EQ(v.rule, "raw-mutex");
}

TEST(CheckRules, FlagsRawConditionVariable) {
  const auto vs = scan("std::condition_variable g_cv;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-mutex");
}

TEST(CheckRules, MutexWrapperHeaderIsExemptFromRawMutex) {
  EXPECT_TRUE(check_source("src/util/mutex.hpp",
                           "#include <mutex>\n"
                           "class Mutex { std::mutex m_; };\n")
                  .empty());
}

TEST(CheckRules, MemberNamedMutexIsNotTheRawType) {
  EXPECT_TRUE(scan("void f(Shard& s) { lock(s.mutex); }\n").empty());
}

TEST(CheckRules, UtilMutexWrapperUseIsFine) {
  EXPECT_TRUE(
      scan("util::Mutex g_m;\n"
           "void f() { util::MutexLock hold(g_m); }\n")
          .empty());
}

TEST(CheckRules, FlagsRawSocketCalls) {
  const auto vs = scan(
      "#include <sys/socket.h>\n"
      "int listener() { return ::socket(AF_INET, SOCK_STREAM, 0); }\n"
      "void push(int fd) { send(fd, \"x\", 1, 0); }\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "raw-socket");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_EQ(vs[1].rule, "raw-socket");
  EXPECT_EQ(vs[1].line, 3u);
}

TEST(CheckRules, SocketWireLayerIsExemptFromRawSocket) {
  EXPECT_TRUE(check_source("src/net/sockets.cpp",
                           "int listener() {\n"
                           "  return ::socket(AF_INET, SOCK_STREAM, 0);\n"
                           "}\n")
                  .empty());
}

TEST(CheckRules, MemberAndNamespaceQualifiedSendAreFine) {
  EXPECT_TRUE(
      scan("void f(Client& c) { c.send(1); }\n"
           "void g() { transport::send(2); }\n")
          .empty());
}

TEST(CheckRules, FlagsUnorderedRangeFor) {
  const auto vs = scan(
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> g_m;\n"
      "double s() {\n"
      "  double t = 0.0;\n"
      "  for (const auto& kv : g_m) t += kv.second;\n"
      "  return t;\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].line, 5u);
}

TEST(CheckRules, FlagsUnorderedBeginIterator) {
  const auto vs = scan(
      "std::unordered_set<int> g_ids;\n"
      "int first() { return *g_ids.begin(); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(CheckRules, OrderedMapIterationIsFine) {
  EXPECT_TRUE(
      scan("#include <map>\n"
           "std::map<int, int> g_m;\n"
           "int s() {\n"
           "  int t = 0;\n"
           "  for (const auto& kv : g_m) t += kv.second;\n"
           "  return t;\n"
           "}\n")
          .empty());
}

TEST(CheckRules, FlagsUnguardedFunctionLocalStatic) {
  const auto vs = scan(
      "int next() {\n"
      "  static int n = 0;\n"
      "  return ++n;\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unguarded-static");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(CheckRules, FlagsUnguardedNamespaceScopeGlobal) {
  const auto vs = scan(
      "namespace {\n"
      "int g_count = 0;\n"
      "}\n"
      "double g_sum = 0.0;\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "unguarded-static");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_EQ(vs[1].line, 4u);
}

TEST(CheckRules, GuardedAtomicConstAndThreadLocalGlobalsAreFine) {
  EXPECT_TRUE(
      scan("#include <atomic>\n"
           "const int kMax = 10;\n"
           "constexpr double kEps = 1e-9;\n"
           "std::atomic<int> g_hits = 0;\n"
           "thread_local int t_depth = 0;\n"
           "int g_guarded OPPRENTICE_GUARDED_BY(g_mu) = 0;\n"
           "using Alias = int;\n"
           "int declared_only;\n"
           "int answer() { int local = 42; return local; }\n"
           "struct S { int member = 0; };\n")
          .empty());
}

TEST(CheckRules, ConstAndConstexprStaticsAreFine) {
  EXPECT_TRUE(
      scan("int limit() {\n"
           "  static const int kMax = 10;\n"
           "  static constexpr double kEps = 1e-9;\n"
           "  return kMax + static_cast<int>(kEps);\n"
           "}\n")
          .empty());
}

TEST(CheckRules, MagicStaticReferenceIsFine) {
  EXPECT_TRUE(
      scan("Registry& get() {\n"
           "  static Registry& r = Registry::instance();\n"
           "  return r;\n"
           "}\n")
          .empty());
}

TEST(CheckRules, AtomicStaticIsFine) {
  EXPECT_TRUE(
      scan("int count() {\n"
           "  static std::atomic<int> n{0};\n"
           "  return ++n;\n"
           "}\n")
          .empty());
}

TEST(CheckRules, ClassScopeStaticMemberIsNotFunctionLocal) {
  EXPECT_TRUE(scan("struct S {\n  static int shared;\n};\n").empty());
}

TEST(CheckRules, FlagsCapturedReductionInParallelFor) {
  const auto vs = scan(
      "double sum(const std::vector<double>& v) {\n"
      "  double total = 0.0;\n"
      "  util::parallel_for(v.size(), [&](std::size_t i) {\n"
      "    total += v[i];\n"
      "  });\n"
      "  return total;\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "fp-reduction");
  EXPECT_EQ(vs[0].line, 4u);
}

TEST(CheckRules, PerIndexSlotWritesAreFine) {
  EXPECT_TRUE(
      scan("void square(std::vector<double>& out,"
           " const std::vector<double>& v) {\n"
           "  util::parallel_for(v.size(), [&](std::size_t i) {\n"
           "    out[i] += v[i] * v[i];\n"
           "  });\n"
           "}\n")
          .empty());
}

TEST(CheckRules, LambdaLocalAccumulatorIsFine) {
  EXPECT_TRUE(
      scan("void work(std::vector<double>& out,"
           " const std::vector<double>& v) {\n"
           "  util::parallel_for(v.size(), [&](std::size_t i) {\n"
           "    double acc = 0.0;\n"
           "    acc += v[i];\n"
           "    out[i] = acc;\n"
           "  });\n"
           "}\n")
          .empty());
}

TEST(CheckRules, FlagsRawStodOnExternalInput) {
  const auto vs = scan(
      "#include <string>\n"
      "double parse_ratio(const std::string& text) {\n"
      "  return std::stod(text);\n"
      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unchecked-stod");
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(CheckRules, FlagsEveryStoVariant) {
  const auto vs = scan(
      "long f(const std::string& s) { return std::stol(s); }\n"
      "unsigned long long g(const std::string& s) { return std::stoull(s); }\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "unchecked-stod");
  EXPECT_EQ(vs[1].rule, "unchecked-stod");
}

TEST(CheckRules, StodInsideTryCatchIsFine) {
  EXPECT_TRUE(
      scan("double parse_ratio(const std::string& text) {\n"
           "  try {\n"
           "    std::size_t pos = 0;\n"
           "    const double v = std::stod(text, &pos);\n"
           "    if (pos != text.size()) throw std::invalid_argument(text);\n"
           "    return v;\n"
           "  } catch (const std::exception&) {\n"
           "    return 0.0;\n"
           "  }\n"
           "}\n")
          .empty());
}

TEST(CheckRules, MemberNamedStodIsNotStdStod) {
  EXPECT_TRUE(
      scan("double f(Parser& p, const std::string& s) { return p.stod(s); }\n")
          .empty());
}

TEST(CheckSuppressions, SameLineReasonedAllowSilences) {
  EXPECT_TRUE(
      scan("int roll() {\n"
           "  return std::rand();  // opprentice-check: allow(rand) parity "
           "with the reference implementation's libc draw\n"
           "}\n")
          .empty());
}

TEST(CheckSuppressions, LineAboveReasonedAllowSilences) {
  EXPECT_TRUE(
      scan("int roll() {\n"
           "  // opprentice-check: allow(rand) parity with the reference "
           "implementation's libc draw\n"
           "  return std::rand();\n"
           "}\n")
          .empty());
}

TEST(CheckSuppressions, BareAllowIsAnErrorAndDoesNotSuppress) {
  const auto vs = scan(
      "int roll() {\n"
      "  return std::rand();  // opprentice-check: allow(rand)\n"
      "}\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "allow-without-reason");
  EXPECT_EQ(vs[1].rule, "rand");
}

TEST(CheckSuppressions, UnknownRuleIdIsAnError) {
  const auto vs = scan(
      "// opprentice-check: allow(no-such-thing) reasoned but wrong id\n"
      "const int x = 0;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "allow-unknown-rule");
  EXPECT_EQ(vs[0].line, 1u);
}

TEST(CheckSuppressions, UnusedSuppressionIsFlagged) {
  const auto vs = scan(
      "// opprentice-check: allow(rand) reasoned, but nothing below draws\n"
      "const int x = 0;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unused-suppression");
  EXPECT_EQ(vs[0].line, 1u);
}

TEST(CheckSuppressions, UsedSuppressionIsNotFlaggedAsUnused) {
  EXPECT_TRUE(
      scan("int roll() {\n"
           "  // opprentice-check: allow(rand) parity with the reference\n"
           "  return std::rand();\n"
           "}\n")
          .empty());
}

TEST(CheckSuppressions, DirectiveMentionedInProseIsNotADirective) {
  // Nested "//" (documentation quoting the syntax) must not parse.
  EXPECT_TRUE(
      scan("// Suppress with:\n"
           "//   // opprentice-check: allow(rand) some reason\n"
           "const int x = 0;\n")
          .empty());
}

TEST(CheckLayering, UtilIncludingMlFires) {
  const auto vs = check_source("src/util/helpers.cpp",
                               "#include \"ml/random_forest.hpp\"\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "layering");
  EXPECT_EQ(vs[0].line, 1u);
}

TEST(CheckLayering, UtilIncludingUtilAndObsIsFine) {
  EXPECT_TRUE(check_source("src/util/helpers.cpp",
                           "#include \"util/stats.hpp\"\n"
                           "#include \"obs/metrics.hpp\"\n"
                           "#include <vector>\n")
                  .empty());
}

TEST(CheckLayering, CoreIncludingUtilIsFine) {
  EXPECT_TRUE(check_source("src/core/cthld.cpp",
                           "#include \"util/stats.hpp\"\n"
                           "#include \"detectors/detector.hpp\"\n")
                  .empty());
}

TEST(CheckLayering, HeaderIncludeCycleBetweenModulesFires) {
  const TempTree tree("check-layering-cycle");
  tree.plant("src/alpha/a.hpp", "#include \"beta/b.hpp\"\nint a();\n");
  tree.plant("src/beta/b.hpp", "#include \"alpha/a.hpp\"\nint b();\n");
  const LintReport report = check_tree({(tree.root() / "src").string()});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].check, "layering");
  EXPECT_NE(report.issues[0].message.find("alpha"), std::string::npos);
  EXPECT_NE(report.issues[0].message.find("beta"), std::string::npos);
}

TEST(CheckLayering, CppOnlyBackEdgeIsNotACycle) {
  // A .cpp in alpha may include beta headers even though beta headers
  // include alpha headers — only header->header edges form cycles (this is
  // the real util <-> obs pattern).
  const TempTree tree("check-layering-cpp-edge");
  tree.plant("src/alpha/a.hpp", "int a();\n");
  tree.plant("src/alpha/a.cpp",
             "#include \"alpha/a.hpp\"\n#include \"beta/b.hpp\"\n"
             "int a() { return 1; }\n");
  tree.plant("src/beta/b.hpp", "#include \"alpha/a.hpp\"\nint b();\n");
  const LintReport report = check_tree({(tree.root() / "src").string()});
  EXPECT_TRUE(report.issues.empty()) << format_report(report, true);
}

TEST(CheckTree, WalksOnlyCppSources) {
  const TempTree tree("check-rules-test");
  tree.plant("src/a.cpp", "int noisy() { return std::rand(); }\n");
  tree.plant("src/b.txt", "int noisy() { return std::rand(); }\n");
  const LintReport report = check_tree({tree.root().string()});
  EXPECT_EQ(report.checks_run, 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].check, "rand");
}

TEST(CheckTree, MissingRootIsReported) {
  const LintReport report = check_tree({"/nonexistent-opprentice-root"});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].check, "missing-root");
}

TEST(CheckSelfTest, EveryPlantedViolationIsCaught) {
  const LintReport report = check_self_test();
  EXPECT_TRUE(report.ok()) << format_report(report, true);
}

}  // namespace
