// Shared plumbing for the project's source-level linters:
// `opprentice_lint` (detector-registry invariants, tools/registry_lint.*)
// and `opprentice_check` (determinism/concurrency contract,
// tools/check_rules.*). Both accumulate the same issue/report shape and
// render through one formatter (terminal text or SARIF for CI code
// scanning); opprentice_check also uses the just-enough-C++ tokenizer and
// the temp-tree file-planting helper for its --self-test.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace opprentice::tools {

// One violated invariant. `check` is a stable machine-readable id
// ("config-count", "unguarded-static", ...); `message` is for humans.
// `file`/`line` optionally anchor the issue to a source location (used by
// SARIF output); an empty `file` means the issue has no location.
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
  // Like fail(), with a source anchor carried through to SARIF output.
  void fail_at(std::string check, std::string message, std::string file,
               std::size_t line);
};

// Renders a report for terminal output. `verbose` also lists passed checks.
std::string format_report(const LintReport& report, bool verbose);

// Renders a report as a minimal SARIF 2.1.0 document (one run, one result
// per issue, level "error") so CI can upload linter findings as
// code-scanning annotations. Issues with a non-empty `file` carry a
// physicalLocation; `strip_prefix` (usually the scan root plus '/') is
// removed from the front of each artifact URI so locations are
// repo-relative.
std::string format_sarif(const LintReport& report, std::string_view tool_name,
                         std::string_view strip_prefix = {});

// RAII temp tree for linter self-tests: a unique directory under the
// system temp path (prefix + pid + instance counter, so parallel ctest
// processes never collide) that is removed with everything planted in it
// when the object dies.
class TempTree {
 public:
  explicit TempTree(std::string_view prefix);
  ~TempTree();
  TempTree(const TempTree&) = delete;
  TempTree& operator=(const TempTree&) = delete;

  const std::filesystem::path& root() const { return root_; }

  // Writes `content` to root()/rel, creating parent directories; returns
  // the absolute path of the planted file.
  std::filesystem::path plant(const std::filesystem::path& rel,
                              std::string_view content) const;

 private:
  std::filesystem::path root_;
};

// Recursively collects .cpp/.cc/.hpp/.h files under `roots`, skipping
// build trees and caches, in sorted path order (directory enumeration
// order is filesystem-dependent; the linters hold themselves to the
// determinism contract they enforce). A root that is not a directory adds
// a "missing-root" issue to `report` when it is non-null.
std::vector<std::filesystem::path> list_cpp_sources(
    const std::vector<std::string>& roots, LintReport* report);

// ---- shared C++ tokenizer ------------------------------------------------
//
// Just enough C++ lexing for the contract linters: identifiers, numbers,
// punctuation (longest-match two-char operators), with line numbers.
// String and char literals become opaque kLiteral tokens, so code quoted
// inside a string — including the checkers' own rule patterns and
// self-test fixtures — can never trip a rule. Comments never become
// tokens; their text is kept per start line for suppression directives.
// Preprocessor lines are skipped entirely (macro bodies are out of scope
// for these heuristics); use scan_includes() for #include analysis.
namespace cpp {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

enum class Tok { kIdent, kNumber, kPunct, kLiteral };

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  std::size_t line = 0;
};

struct Lexed {
  std::vector<Token> tokens;
  std::map<std::size_t, std::string> comments;  // start line -> text
};

Lexed lex(std::string_view src);

bool is_punct(const std::vector<Token>& toks, std::size_t i,
              std::string_view text);
bool is_ident(const std::vector<Token>& toks, std::size_t i,
              std::string_view text);

// Index of the punct matching `open` at index i (which must be `open`).
std::size_t match_close(const std::vector<Token>& toks, std::size_t i,
                        std::string_view open, std::string_view close);

// Matching '>' for the '<' at i; ">>" closes two levels. Bails at
// statement punctuation so `a < b;` is not mistaken for a template list.
std::size_t match_template_close(const std::vector<Token>& toks,
                                 std::size_t i);

bool prev_is_member_access(const std::vector<Token>& toks, std::size_t i);

// One #include directive. `angled` distinguishes <system> from "project"
// includes; layering rules only reason about the quoted form.
struct Include {
  std::string path;
  std::size_t line = 0;
  bool angled = false;
};

// Line-based scan for #include directives (the lexer drops preprocessor
// lines, so include analysis reads the raw source).
std::vector<Include> scan_includes(std::string_view src);

// ---- suppression directives ----------------------------------------------
//
// All contract linters share one suppression grammar:
//   // <marker> allow(<rule>[, <rule>...]) <mandatory reason>
// on the violation's line or the line above. A reason-less or rule-less
// allow is `malformed`; rules not in `known_rules` land in `unknown`.
struct Directive {
  std::set<std::string> rules;
  std::vector<std::string> unknown;
  bool has_reason = false;
  bool malformed = false;
};

// Parses every directive in `comments` whose text opens with `marker`
// (e.g. "opprentice-check:"); mentions of the syntax in prose do not
// count. Keyed by comment start line.
std::map<std::size_t, Directive> parse_directives(
    const std::map<std::size_t, std::string>& comments,
    std::string_view marker, const std::set<std::string>& known_rules);

}  // namespace cpp

}  // namespace opprentice::tools
