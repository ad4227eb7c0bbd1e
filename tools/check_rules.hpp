// Determinism & concurrency contract checker (`opprentice_check`).
//
// Opprentice's results are required to be bit-identical across runs and
// thread counts (DESIGN.md §5e): every RNG flows from an explicit seed,
// parallel loops write per-index slots, and iteration orders that feed
// output are defined. These are contracts a compiler never sees, so this
// tool enforces them with a lightweight tokenizer-based scan over the C++
// sources in src/, tools/, and bench/ — no libclang, no build needed.
//
// Rules (stable ids, used in suppressions and reports):
//   random-device       std::random_device — nondeterministic entropy
//   rand                rand()/srand() — hidden global RNG state
//   wall-clock-seed     clock reads (time(), *_clock::now()) feeding a seed
//   raw-thread          std::thread construction or .detach() outside the
//                       pool implementation (util/thread_pool.cpp)
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
// ("allow-unknown-rule").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_common.hpp"

namespace opprentice::tools {

struct CheckRule {
  std::string id;
  std::string summary;
};

// The nine enforceable rules above, in documentation order. The two
// suppression-misuse ids are not listed: they cannot be allowed away.
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

// Recursively scans .cpp/.hpp/.h/.cc files under `roots` (skipping build
// trees and caches) in sorted path order and folds every violation into a
// report: one issue per violation, checks_run = files scanned.
LintReport check_tree(const std::vector<std::string>& roots);

}  // namespace opprentice::tools
