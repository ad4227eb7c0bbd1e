// opprentice_check: determinism & concurrency contract checker.
//
// Tokenizer-based scan over the C++ sources in src/, tools/, and bench/
// for the contracts the compiler cannot see (DESIGN.md §5e): no ambient
// entropy or wall-clock seeding, no raw threads outside the pool, no
// hash-order iteration feeding output, no unguarded function-local
// statics or namespace-scope globals, no cross-index reductions inside
// parallel_for bodies.
//
// Usage:
//   opprentice_check [--root DIR] [--verbose]
//   opprentice_check --self-test
//   opprentice_check --list-rules
//
// Exit status: 0 when the tree is clean, 1 on any violation, 2 on usage
// errors.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "tools/check_rules.hpp"

namespace {

void print_usage() {
  std::fputs(
      "usage: opprentice_check [--root DIR] [--verbose] [--sarif]\n"
      "       opprentice_check --self-test\n"
      "       opprentice_check --list-rules\n"
      "\n"
      "Scans the C++ sources under DIR/src, DIR/tools, and DIR/bench\n"
      "(default: the current directory) for determinism/concurrency\n"
      "contract violations. --sarif emits SARIF 2.1.0 instead of text.\n"
      "--self-test plants one violation per rule in a temp tree and\n"
      "verifies each is caught.\n",
      stderr);
}

int run_check(const std::string& root, bool verbose, bool sarif) {
  const std::filesystem::path base(root);
  std::vector<std::string> roots;
  for (const char* sub : {"src", "tools", "bench"}) {
    roots.push_back((base / sub).string());
  }
  const opprentice::tools::LintReport report =
      opprentice::tools::check_tree(roots);
  if (sarif) {
    std::string strip = root;
    if (!strip.empty() && strip.back() != '/') strip += '/';
    std::fputs(opprentice::tools::format_sarif(report, "opprentice_check",
                                               strip)
                   .c_str(),
               stdout);
  } else {
    std::fputs(opprentice::tools::format_report(report, verbose).c_str(),
               stdout);
  }
  return report.ok() ? 0 : 1;
}

int run_self_test(bool verbose) {
  const opprentice::tools::LintReport report =
      opprentice::tools::check_self_test();
  std::fputs(opprentice::tools::format_report(report, verbose).c_str(),
             stdout);
  if (!report.ok()) {
    std::fputs("self-test FAILED: the checker missed planted violations\n",
               stderr);
  }
  return report.ok() ? 0 : 1;
}

int run_list_rules() {
  for (const auto& rule : opprentice::tools::check_rules()) {
    std::printf("%-20s %s\n", rule.id.c_str(), rule.summary.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  bool list_rules = false;
  bool verbose = false;
  bool sarif = false;
  std::string root = ".";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "opprentice_check: --root requires a value\n");
        print_usage();
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "opprentice_check: unknown argument '%s'\n",
                   arg.c_str());
      print_usage();
      return 2;
    }
  }

  try {
    if (list_rules) return run_list_rules();
    return self_test ? run_self_test(verbose)
                     : run_check(root, verbose, sarif);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opprentice_check: uncaught exception: %s\n",
                 e.what());
    return 2;
  }
}
