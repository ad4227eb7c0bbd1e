// Determinism & concurrency contract checker (`opprentice_check`).
//
// Opprentice's results are required to be bit-identical across runs and
// thread counts (DESIGN.md §5e): every RNG flows from an explicit seed,
// parallel loops write per-index slots, and iteration orders that feed
// output are defined. These are contracts a compiler never sees, so this
// tool enforces them with a lightweight tokenizer-based scan over the C++
// sources in src/, tools/, and bench/ — no libclang, no build needed.
//
// Rules (stable ids, used in suppressions and reports; --list-rules
// prints these eleven, then unused-suppression):
//   random-device       std::random_device — nondeterministic entropy
//   rand                rand()/srand() — hidden global RNG state
//   wall-clock-seed     clock reads (time(), *_clock::now()) feeding a seed
//   raw-thread          std::thread construction or .detach() outside the
//                       pool implementation (util/thread_pool.cpp)
//   raw-mutex           raw std synchronization primitives (std::mutex,
//                       lock_guard, condition_variable, ...) outside
//                       util/mutex.hpp
//   raw-socket          raw socket syscalls (socket(), recv(), send(),
//                       ...) outside net/sockets.*
//   unordered-iteration iterating an unordered_{map,set} local/global —
//                       hash order is unspecified and feeds output
//   unguarded-static    mutable function-local static without
//                       const/constexpr/thread_local or the magic-static
//                       reference idiom; or an `=`-initialized
//                       namespace-scope variable that is not
//                       const/atomic/thread_local/OPPRENTICE_GUARDED_BY
//   fp-reduction        compound assignment (+=, -=, *=, /=) to a variable
//                       captured from outside a parallel_for body —
//                       reductions must go through per-index slots
//   unchecked-stod      raw std::sto{d,f,ld,i,l,ll,ul,ull} outside a
//                       try/catch — external input (CSV cells, CLI flags,
//                       env specs) must fail with a located error, not an
//                       uncaught exception or a silent prefix parse
//   layering            src/util including src/{core,detectors,ml} (the
//                       leaf layer must not depend upward), or two modules
//                       whose headers include each other — cycles make
//                       build order and ownership ambiguous
//
// A finding is suppressed with a comment on the same line or the line
// above:
//   // opprentice-check: allow(<rule>) <reason>
// The reason is mandatory; a bare allow() is itself an error
// ("allow-without-reason"), as is naming a rule that does not exist
// ("allow-unknown-rule"), and so is a reasoned allow() that no longer
// matches any finding ("unused-suppression").
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace opprentice::tools {

// One finding in a tree scan. `check` is the rule id; an empty `file`
// means the issue has no source location (include cycles, missing roots).
struct LintIssue {
  std::string check;
  std::string message;
  std::string file;
  std::size_t line = 0;
};

struct LintReport {
  std::vector<LintIssue> issues;
  std::size_t checks_run = 0;

  bool ok() const { return issues.empty(); }
  void fail(std::string check, std::string message);
  void fail_at(std::string check, std::string message, std::string file,
               std::size_t line);
};

// Renders a report for the terminal: one FAIL line per issue, then the
// "OK|FAIL: N checks, M issues" summary line.
std::string format_report(const LintReport& report);

// Recursively collects .cpp/.cc/.hpp/.h files under `roots` in sorted
// path order (directory enumeration order is filesystem-dependent; the
// checker holds itself to the determinism contract it enforces). Build
// trees and .git below a root (build*, cmake-build*, .git) are skipped;
// the names of a root's own ancestors never matter. A root that is not a directory adds a "missing-root" issue to
// `report` when it is non-null.
std::vector<std::filesystem::path> list_cpp_sources(
    const std::vector<std::string>& roots, LintReport* report);

struct CheckRule {
  std::string id;
  std::string summary;
};

// The eleven enforceable rules above in documentation order, then
// unused-suppression. allow-without-reason and allow-unknown-rule are not
// listed: they cannot be allowed away.
const std::vector<CheckRule>& check_rules();

struct CheckViolation {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
};

// Scans one C++ source. `path` is used for reports and for per-file
// exemptions (util/thread_pool.{cpp,hpp} may touch std::thread).
// Suppressions are already applied; misused suppressions surface as
// violations with the meta rule ids.
std::vector<CheckViolation> check_source(std::string_view path,
                                         std::string_view content);

// Scans every list_cpp_sources() file under `roots` and folds every
// violation into a report: one issue per violation, checks_run = files
// scanned.
LintReport check_tree(const std::vector<std::string>& roots);

}  // namespace opprentice::tools
