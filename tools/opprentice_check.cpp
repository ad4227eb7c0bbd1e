// opprentice_check: determinism & concurrency contract checker.
//
// Tokenizer-based scan over the C++ sources in src/, tools/, and bench/
// for the contracts the compiler cannot see (DESIGN.md §5e): no ambient
// entropy or wall-clock seeding, no raw threads, locks or sockets outside
// their one audited home, no hash-order iteration feeding output, no
// unguarded function-local statics or namespace-scope globals, no
// cross-index reductions inside parallel_for bodies, no upward or cyclic
// includes.
//
// Usage:
//   opprentice_check [--root DIR]
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
      "usage: opprentice_check [--root DIR]\n"
      "       opprentice_check --list-rules\n"
      "\n"
      "Scans the C++ sources under DIR/src, DIR/tools, and DIR/bench\n"
      "(default: the current directory) for determinism/concurrency\n"
      "contract violations.\n",
      stderr);
}

int run_check(const std::string& root) {
  const std::filesystem::path base(root);
  std::vector<std::string> roots;
  for (const char* sub : {"src", "tools", "bench"}) {
    roots.push_back((base / sub).string());
  }
  const opprentice::tools::LintReport report =
      opprentice::tools::check_tree(roots);
  std::fputs(opprentice::tools::format_report(report).c_str(), stdout);
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
  bool list_rules = false;
  std::string root = ".";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
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
    return run_check(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opprentice_check: uncaught exception: %s\n",
                 e.what());
    return 2;
  }
}
