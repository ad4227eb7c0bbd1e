#include "tools/check_rules.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

namespace opprentice::tools {

void LintReport::fail(std::string check, std::string message) {
  issues.push_back({std::move(check), std::move(message), std::string(), 0});
}

void LintReport::fail_at(std::string check, std::string message,
                         std::string file, std::size_t line) {
  issues.push_back({std::move(check), std::move(message), std::move(file),
                    line});
}

std::string format_report(const LintReport& report) {
  std::ostringstream out;
  for (const auto& issue : report.issues) {
    out << "FAIL [" << issue.check << "] ";
    if (!issue.file.empty()) out << issue.file << ':' << issue.line << ": ";
    out << issue.message << '\n';
  }
  out << (report.ok() ? "OK" : "FAIL") << ": " << report.checks_run
      << " checks, " << report.issues.size() << " issue"
      << (report.issues.size() == 1 ? "" : "s") << '\n';
  return out.str();
}

namespace {

bool is_checked_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

bool is_skipped_directory_name(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0 ||
         name.rfind("cmake-build", 0) == 0;
}

}  // namespace

std::vector<std::filesystem::path> list_cpp_sources(
    const std::vector<std::string>& roots, LintReport* report) {
  std::vector<std::filesystem::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec)) {
      if (report != nullptr) {
        report->fail("missing-root", "'" + root + "' is not a directory");
      }
      continue;
    }
    // Skip names are matched on the entries below the root only, so a
    // checkout under e.g. /builds/<group>/<repo> is still scanned.
    for (auto it = std::filesystem::recursive_directory_iterator(
             root, std::filesystem::directory_options::skip_permission_denied);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      const std::filesystem::path& p = it->path();
      if (it->is_directory()) {
        if (is_skipped_directory_name(p.filename().string())) {
          it.disable_recursion_pending();
        }
      } else if (it->is_regular_file() && is_checked_extension(p)) {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

namespace {

// ---- tokenizer ------------------------------------------------------------
//
// Just enough C++ lexing for the rules: identifiers, numbers, punctuation
// (longest-match two-char operators), with line numbers. String and char
// literals become opaque kLiteral tokens, so code quoted inside a string
// — including the checker's own rule patterns and test fixtures — can
// never trip a rule. Comments never become tokens; their text is kept per
// start line for suppression directives. Preprocessor lines are skipped
// entirely (macro bodies are out of scope for these heuristics);
// scan_includes() reads #include directives from the raw source.

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

// One #include directive. `angled` distinguishes <system> from "project"
// includes; layering rules only reason about the quoted form.
struct Include {
  std::string path;
  std::size_t line = 0;
  bool angled = false;
};

// One suppression directive:
//   // opprentice-check: allow(<rule>[, <rule>...]) <mandatory reason>
// A reason-less or rule-less allow is `malformed`; rules not in the rule
// table land in `unknown`.
struct Directive {
  std::set<std::string> rules;
  std::vector<std::string> unknown;
  bool has_reason = false;
  bool malformed = false;
};

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool is_digit_char(char c) { return c >= '0' && c <= '9'; }

bool is_two_char_punct(char a, char b) {
  static const char* const kPairs[] = {"::", "->", "++", "--", "+=", "-=",
                                       "*=", "/=", "%=", "&=", "|=", "^=",
                                       "==", "!=", "<=", ">=", "&&", "||",
                                       "<<", ">>"};
  for (const char* pair : kPairs) {
    if (pair[0] == a && pair[1] == b) return true;
  }
  return false;
}

bool is_ident_char(char c) { return is_ident_start(c) || is_digit_char(c); }

Lexed lex(std::string_view src) {
  Lexed out;
  const std::size_t n = src.size();
  std::size_t line = 1;
  std::size_t i = 0;
  const auto peek = [&](std::size_t ahead) {
    return i + ahead < n ? src[i + ahead] : '\0';
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#') {  // preprocessor directive, honoring line continuations
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          ++i;
        }
        ++i;
      }
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      std::size_t j = i + 2;
      while (j < n && src[j] != '\n') ++j;
      out.comments[line] += std::string(src.substr(i + 2, j - i - 2));
      i = j;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const std::size_t start_line = line;
      std::size_t j = i + 2;
      std::string text;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        text += src[j];
        ++j;
      }
      out.comments[start_line] += text;
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(src[j])) ++j;
      std::string ident(src.substr(i, j - i));
      if (j < n && src[j] == '"' &&
          (ident == "R" || ident == "u8R" || ident == "uR" || ident == "LR")) {
        // Raw string literal: R"delim( ... )delim"
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && src[k] != '(') delim += src[k++];
        const std::string closer = ")" + delim + "\"";
        std::size_t end = src.find(closer, k);
        end = (end == std::string_view::npos) ? n : end + closer.size();
        for (std::size_t p = i; p < end; ++p) {
          if (src[p] == '\n') ++line;
        }
        out.tokens.push_back({Tok::kLiteral, "<raw-string>", line});
        i = end;
        continue;
      }
      out.tokens.push_back({Tok::kIdent, std::move(ident), line});
      i = j;
      continue;
    }
    if (is_digit_char(c) || (c == '.' && is_digit_char(peek(1)))) {
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++j;
          continue;
        }
        if ((d == '+' || d == '-') && j > i) {
          const char e = src[j - 1];
          if (e == 'e' || e == 'E' || e == 'p' || e == 'P') {
            ++j;
            continue;
          }
        }
        break;
      }
      out.tokens.push_back({Tok::kNumber, std::string(src.substr(i, j - i)),
                            line});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          ++j;
        } else if (src[j] == '\n') {
          ++line;  // unterminated literal: stay lenient, keep line counts
        }
        ++j;
      }
      out.tokens.push_back(
          {Tok::kLiteral, quote == '"' ? "<string>" : "<char>", line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (is_two_char_punct(c, peek(1))) {
      out.tokens.push_back({Tok::kPunct, std::string(src.substr(i, 2)), line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Tok::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

bool tok_is(const std::vector<Token>& toks, std::size_t i, Tok kind,
            std::string_view text) {
  return i < toks.size() && toks[i].kind == kind && toks[i].text == text;
}

bool is_punct(const std::vector<Token>& toks, std::size_t i,
              std::string_view text) {
  return tok_is(toks, i, Tok::kPunct, text);
}

bool is_ident(const std::vector<Token>& toks, std::size_t i,
              std::string_view text) {
  return tok_is(toks, i, Tok::kIdent, text);
}

std::size_t match_close(const std::vector<Token>& toks, std::size_t i,
                        std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].kind != Tok::kPunct) continue;
    if (toks[j].text == open) {
      ++depth;
    } else if (toks[j].text == close) {
      if (--depth == 0) return j;
    }
  }
  return kNpos;
}

std::size_t match_template_close(const std::vector<Token>& toks,
                                 std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].kind != Tok::kPunct) continue;
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return j;
    } else if (t == ";" || t == "{" || t == "}") {
      return kNpos;
    }
  }
  return kNpos;
}

bool prev_is_member_access(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && toks[i - 1].kind == Tok::kPunct &&
         (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<Include> scan_includes(std::string_view src) {
  std::vector<Include> out;
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos <= src.size()) {
    const std::size_t eol = src.find('\n', pos);
    std::string_view text = trim(src.substr(
        pos, eol == std::string_view::npos ? src.size() - pos : eol - pos));
    if (!text.empty() && text.front() == '#') {
      text.remove_prefix(1);
      text = trim(text);
      if (text.substr(0, 7) == "include") {
        text = trim(text.substr(7));
        if (!text.empty() && (text.front() == '"' || text.front() == '<')) {
          const bool angled = text.front() == '<';
          const char closer = angled ? '>' : '"';
          const std::size_t end = text.find(closer, 1);
          if (end != std::string_view::npos) {
            out.push_back({std::string(text.substr(1, end - 1)), line,
                           angled});
          }
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

std::map<std::size_t, Directive> parse_directives(
    const std::map<std::size_t, std::string>& comments,
    const std::set<std::string>& known_rules) {
  constexpr std::string_view kMarker = "opprentice-check:";
  std::map<std::size_t, Directive> out;
  for (const auto& [line, raw] : comments) {
    // The marker must open the comment; mentions of the syntax in prose
    // (like the checker's own documentation) are not directives.
    const std::string_view text = trim(raw);
    if (text.substr(0, kMarker.size()) != kMarker) continue;
    Directive d;
    std::string_view rest = trim(text.substr(kMarker.size()));
    const std::string kAllow = "allow(";
    const std::size_t open = rest.find(kAllow);
    const std::size_t close = rest.find(')');
    if (open != 0 || close == std::string_view::npos || close < kAllow.size()) {
      d.malformed = true;
      out.emplace(line, std::move(d));
      continue;
    }
    std::string_view inside =
        rest.substr(kAllow.size(), close - kAllow.size());
    while (!inside.empty()) {
      const std::size_t comma = inside.find(',');
      const std::string_view piece = trim(inside.substr(0, comma));
      if (!piece.empty()) {
        const std::string rule(piece);
        if (known_rules.count(rule) > 0) {
          d.rules.insert(rule);
        } else {
          d.unknown.push_back(rule);
        }
      }
      if (comma == std::string_view::npos) break;
      inside.remove_prefix(comma + 1);
    }
    if (d.rules.empty() && d.unknown.empty()) d.malformed = true;
    for (const char c : trim(rest.substr(close + 1))) {
      if (is_ident_char(c)) {
        d.has_reason = true;
        break;
      }
    }
    out.emplace(line, std::move(d));
  }
  return out;
}

// ---- rule helpers --------------------------------------------------------

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string basename_of(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  return std::string(slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1));
}

// Module of a source path: the path component after the last "src"
// (e.g. src/util/mutex.hpp -> "util"), or "tools"/"bench" for files under
// those roots. Empty when the file sits directly in src/ or elsewhere.
std::string module_of(const std::filesystem::path& path) {
  std::vector<std::string> parts;
  for (const auto& part : path) parts.push_back(part.string());
  std::string module;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const bool last = i + 1 == parts.size();
    if (parts[i] == "src" && i + 2 < parts.size()) {
      module = parts[i + 1];
    } else if ((parts[i] == "tools" || parts[i] == "bench") && !last) {
      module = parts[i];
    }
  }
  return module;
}

// Module an #include "..." path points into: its first directory component
// (project includes are rooted at src/, so "util/mutex.hpp" -> "util").
// Empty for flat includes and <angled> system headers.
std::string include_module(const Include& inc) {
  if (inc.angled) return std::string();
  const std::size_t slash = inc.path.find('/');
  if (slash == std::string::npos) return std::string();
  return inc.path.substr(0, slash);
}

using AddFn = std::function<void(const char*, std::size_t, std::string)>;

// ---- rule passes ---------------------------------------------------------

void pass_random_device(const Lexed& lx, const AddFn& add) {
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks, i, "random_device")) {
      add("random-device", toks[i].line,
          "std::random_device draws nondeterministic entropy; seed a "
          "util::Rng from configuration instead");
    }
  }
}

void pass_rand(const Lexed& lx, const AddFn& add) {
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i].text != "rand" && toks[i].text != "srand") continue;
    if (!is_punct(toks, i + 1, "(")) continue;
    if (prev_is_member_access(toks, i)) continue;
    add("rand", toks[i].line,
        toks[i].text + "() uses hidden global RNG state; use a locally "
        "seeded util::Rng");
  }
}

bool is_seedish_ident(const Token& tok) {
  if (tok.kind != Tok::kIdent) return false;
  const std::string lowered = lower(tok.text);
  if (lowered.find("seed") != std::string::npos) return true;
  if (lowered.find("rng") != std::string::npos) return true;
  static const std::set<std::string> kEngines = {
      "mt19937",       "mt19937_64",   "minstd_rand", "minstd_rand0",
      "ranlux24",      "ranlux48",     "ranlux24_base", "ranlux48_base",
      "knuth_b",       "default_random_engine", "srand"};
  return kEngines.count(tok.text) > 0;
}

// Index of a clock read inside [begin, end), or kNpos.
std::size_t find_clock_read(const std::vector<Token>& toks, std::size_t begin,
                            std::size_t end) {
  static const std::set<std::string> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind != Tok::kIdent) continue;
    if (toks[k].text == "time" && is_punct(toks, k + 1, "(") &&
        !prev_is_member_access(toks, k)) {
      return k;
    }
    if (kClocks.count(toks[k].text) > 0 && is_punct(toks, k + 1, "::") &&
        is_ident(toks, k + 2, "now")) {
      return k;
    }
  }
  return kNpos;
}

void pass_wall_clock_seed(const Lexed& lx, const AddFn& add) {
  const auto& toks = lx.tokens;
  std::size_t stmt_begin = 0;
  const auto scan = [&](std::size_t begin, std::size_t end) {
    const std::size_t clock_at = find_clock_read(toks, begin, end);
    if (clock_at == kNpos) return;
    for (std::size_t k = begin; k < end; ++k) {
      if (is_seedish_ident(toks[k])) {
        add("wall-clock-seed", toks[clock_at].line,
            "clock read feeds an RNG seed; runs become unreproducible — "
            "thread an explicit seed through instead");
        return;
      }
    }
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Tok::kPunct &&
        (toks[i].text == ";" || toks[i].text == "{" || toks[i].text == "}")) {
      scan(stmt_begin, i);
      stmt_begin = i + 1;
    }
  }
  scan(stmt_begin, toks.size());
}

void pass_raw_thread(const Lexed& lx, std::string_view path,
                     const AddFn& add) {
  const std::string base = basename_of(path);
  // The pool implementation is the one place allowed to own threads.
  if (base == "thread_pool.cpp" || base == "thread_pool.hpp") return;
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks, i, "std") && is_punct(toks, i + 1, "::") &&
        is_ident(toks, i + 2, "thread") && !is_punct(toks, i + 3, "::")) {
      add("raw-thread", toks[i + 2].line,
          "raw std::thread outside util/thread_pool.cpp; route parallelism "
          "through util::parallel_for so the determinism guarantees hold");
    }
    if (is_ident(toks, i, "detach") && prev_is_member_access(toks, i) &&
        is_punct(toks, i + 1, "(")) {
      add("raw-thread", toks[i].line,
          "detached threads outlive the scope that reasons about them; use "
          "util::parallel_for or a joined scope");
    }
  }
}

void pass_raw_mutex(const Lexed& lx, std::string_view path, const AddFn& add) {
  // util/mutex.hpp is the one place allowed to touch the raw std
  // synchronization primitives; everything else goes through
  // util::Mutex/MutexLock/CondVar so the lock-order check sees every
  // acquisition.
  if (basename_of(path) == "mutex.hpp") return;
  static const std::set<std::string> kPrimitives = {
      "lock_guard",         "unique_lock",
      "scoped_lock",        "shared_lock",
      "condition_variable", "condition_variable_any",
      "timed_mutex",        "recursive_mutex",
      "shared_mutex",       "recursive_timed_mutex",
      "shared_timed_mutex"};
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (prev_is_member_access(toks, i)) continue;
    // Unlike the unmistakable primitive names, bare "mutex" is a common
    // member name; only the std-qualified form is the raw type.
    const bool std_qualified = i >= 2 && is_punct(toks, i - 1, "::") &&
                               is_ident(toks, i - 2, "std");
    if (kPrimitives.count(toks[i].text) > 0 ||
        (toks[i].text == "mutex" && std_qualified)) {
      add("raw-mutex", toks[i].line,
          "raw std::" + toks[i].text +
              " outside util/mutex.hpp; use util::Mutex/MutexLock/CondVar "
              "so the lock-order check sees every acquisition");
    }
  }
}

void pass_raw_socket(const Lexed& lx, std::string_view path,
                     const AddFn& add) {
  // net/sockets.* is the one place allowed to speak to the socket layer;
  // everything else goes through net::SocketServer/SocketClient so fd
  // lifecycle (close-on-drain, reset handling, nonblocking setup) stays
  // in one audited file and the session core stays byte-replayable.
  const std::string base = basename_of(path);
  if (base == "sockets.cpp" || base == "sockets.hpp") return;
  static const std::set<std::string> kSocketFns = {
      "socket",  "accept",     "accept4",    "listen",
      "recv",    "send",       "recvfrom",   "sendto",
      "recvmsg", "sendmsg",    "setsockopt", "getsockopt"};
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || kSocketFns.count(toks[i].text) == 0)
      continue;
    if (!is_punct(toks, i + 1, "(")) continue;
    if (prev_is_member_access(toks, i)) continue;  // e.g. client.send(...)
    // Namespace-qualified names (net::send) are project wrappers; only
    // the bare or global-scope (::recv) forms are the raw syscalls. A
    // statement keyword before '::' still means global scope
    // ("return ::socket(...)").
    static const std::set<std::string> kStmtKeywords = {
        "return", "throw", "else", "do", "case", "co_return", "co_yield"};
    if (i >= 2 && is_punct(toks, i - 1, "::") &&
        toks[i - 2].kind == Tok::kIdent &&
        kStmtKeywords.count(toks[i - 2].text) == 0) {
      continue;
    }
    add("raw-socket", toks[i].line,
        toks[i].text +
            "() outside net/sockets.*; use net::SocketServer/SocketClient "
            "so fd lifecycle stays confined to the audited wire layer");
  }
}

void pass_unordered_iteration(const Lexed& lx, const AddFn& add) {
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto& toks = lx.tokens;

  // Pass 1: names declared with an unordered container type.
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || kUnorderedTypes.count(toks[i].text) == 0)
      continue;
    if (!is_punct(toks, i + 1, "<")) continue;
    const std::size_t close = match_template_close(toks, i + 1);
    if (close == kNpos) continue;
    std::size_t j = close + 1;
    while (j < toks.size() &&
           (is_punct(toks, j, "&") || is_punct(toks, j, "*") ||
            is_ident(toks, j, "const"))) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != Tok::kIdent) continue;
    static const std::set<std::string> kAfterName = {";", "=", "{",
                                                     "(", ")", ","};
    if (j + 1 < toks.size() && toks[j + 1].kind == Tok::kPunct &&
        kAfterName.count(toks[j + 1].text) > 0) {
      names.insert(toks[j].text);
    }
  }
  if (names.empty()) return;

  // Pass 2: iteration over one of those names.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks, i, "for") && is_punct(toks, i + 1, "(")) {
      const std::size_t close = match_close(toks, i + 1, "(", ")");
      if (close == kNpos) continue;
      int depth = 1;
      std::size_t colon = kNpos;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (toks[k].kind != Tok::kPunct) continue;
        if (toks[k].text == "(") ++depth;
        else if (toks[k].text == ")") --depth;
        else if (toks[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      if (colon != kNpos && close == colon + 2 &&
          toks[colon + 1].kind == Tok::kIdent &&
          names.count(toks[colon + 1].text) > 0) {
        add("unordered-iteration", toks[colon + 1].line,
            "iterating '" + toks[colon + 1].text +
                "' visits hash order, which is unspecified; use "
                "std::map/std::set or sort the keys first");
      }
    }
    if (toks[i].kind == Tok::kIdent && names.count(toks[i].text) > 0 &&
        i + 3 < toks.size() && toks[i + 1].kind == Tok::kPunct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
        is_punct(toks, i + 3, "(")) {
      add("unordered-iteration", toks[i].line,
          "iterator over '" + toks[i].text +
              "' visits hash order, which is unspecified; use "
              "std::map/std::set or sort the keys first");
    }
  }
}

// An `=`-initialized namespace-scope variable in toks[begin, end) (one
// declaration, up to its ';') with no qualifier that makes sharing it
// safe. Declarations with parens before the '=' are functions or macros
// and are skipped.
void check_namespace_declaration(const std::vector<Token>& toks,
                                 std::size_t begin, std::size_t end,
                                 const AddFn& add) {
  static const std::set<std::string> kExempt = {
      "const",     "constexpr", "constinit",     "thread_local",
      "atomic",    "using",     "typedef",       "extern",
      "template",  "friend",    "operator",      "static_assert",
      "class",     "struct",    "union",         "enum",
      "namespace", "GUARDED_BY", "OPPRENTICE_GUARDED_BY"};
  int depth = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kIdent && kExempt.count(t.text) > 0) return;
    if (t.kind != Tok::kPunct) continue;
    if (t.text == "(") return;
    if (t.text == "<" || t.text == "[") ++depth;
    if (t.text == ">" || t.text == "]") --depth;
    if (t.text != "=" || depth != 0) continue;
    if (i == begin || toks[i - 1].kind != Tok::kIdent) return;
    add("unguarded-static", toks[i - 1].line,
        "mutable namespace-scope '" + toks[i - 1].text +
            "' is shared across threads with no guard; make it "
            "const/atomic/thread_local, OPPRENTICE_GUARDED_BY a mutex, or "
            "justify with an allow()");
    return;
  }
}

void pass_unguarded_static(const Lexed& lx, const AddFn& add) {
  enum class Scope { kNamespace, kType, kBlock };
  const auto& toks = lx.tokens;
  std::vector<Scope> stack;
  std::size_t window_start = 0;  // first token after the last ; { or }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Tok::kPunct) {
      const std::string& t = toks[i].text;
      if (t == ";" && (stack.empty() || stack.back() == Scope::kNamespace)) {
        check_namespace_declaration(toks, window_start, i, add);
      }
      if (t == "{") {
        Scope kind = Scope::kBlock;
        if (!(i > 0 && is_punct(toks, i - 1, ")"))) {
          for (std::size_t k = window_start; k < i; ++k) {
            if (toks[k].kind != Tok::kIdent) continue;
            if (toks[k].text == "namespace") {
              kind = Scope::kNamespace;
              break;
            }
            if (toks[k].text == "class" || toks[k].text == "struct" ||
                toks[k].text == "union" || toks[k].text == "enum") {
              kind = Scope::kType;
            }
          }
        }
        stack.push_back(kind);
        window_start = i + 1;
      } else if (t == "}") {
        if (!stack.empty()) stack.pop_back();
        window_start = i + 1;
      } else if (t == ";") {
        window_start = i + 1;
      }
      continue;
    }
    if (!is_ident(toks, i, "static")) continue;
    if (stack.empty() || stack.back() != Scope::kBlock) continue;
    // Exemptions: immutable, per-thread, internally synchronized, or the
    // magic-static reference idiom (initialization is thread-safe and the
    // referent is expected to synchronize itself).
    bool exempt = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == Tok::kPunct &&
          (toks[j].text == ";" || toks[j].text == "=" ||
           toks[j].text == "(" || toks[j].text == "{")) {
        break;
      }
      if (is_punct(toks, j, "&") ||
          (toks[j].kind == Tok::kIdent &&
           (toks[j].text == "const" || toks[j].text == "constexpr" ||
            toks[j].text == "constinit" || toks[j].text == "thread_local" ||
            toks[j].text == "atomic"))) {
        exempt = true;
        break;
      }
    }
    if (!exempt) {
      add("unguarded-static", toks[i].line,
          "mutable function-local static is shared across threads with no "
          "guard; guard it, make it const/thread_local/atomic, or justify "
          "with an allow()");
    }
  }
}

void pass_fp_reduction(const Lexed& lx, const AddFn& add) {
  const auto& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks, i, "parallel_for") || !is_punct(toks, i + 1, "("))
      continue;
    const std::size_t call_close = match_close(toks, i + 1, "(", ")");
    if (call_close == kNpos) continue;
    std::size_t cap_open = kNpos;
    for (std::size_t k = i + 2; k < call_close; ++k) {
      if (is_punct(toks, k, "[")) {
        cap_open = k;
        break;
      }
    }
    if (cap_open == kNpos) continue;  // declaration, not a lambda call site
    const std::size_t cap_close = match_close(toks, cap_open, "[", "]");
    if (cap_close == kNpos) continue;

    // Names the body may legitimately assign to: lambda parameters plus
    // anything it declares itself.
    std::set<std::string> locals;
    std::size_t j = cap_close + 1;
    if (is_punct(toks, j, "(")) {
      const std::size_t params_close = match_close(toks, j, "(", ")");
      if (params_close == kNpos) continue;
      for (std::size_t k = j + 1; k < params_close; ++k) {
        if (toks[k].kind == Tok::kIdent && k + 1 < toks.size() &&
            toks[k + 1].kind == Tok::kPunct &&
            (toks[k + 1].text == "," || toks[k + 1].text == ")")) {
          locals.insert(toks[k].text);
        }
      }
      j = params_close + 1;
    }
    while (j < call_close && !is_punct(toks, j, "{")) ++j;
    if (j >= call_close) continue;
    const std::size_t body_open = j;
    const std::size_t body_close = match_close(toks, body_open, "{", "}");
    if (body_close == kNpos) continue;

    static const std::set<std::string> kDeclNext = {"=", ";", ",",
                                                    ":", "(", "{"};
    static const std::set<std::string> kDeclPrevPunct = {">", ">>", "&", "*",
                                                         "&&", "[", ","};
    static const std::set<std::string> kNotDeclPrevIdent = {
        "return", "throw", "goto", "case", "new", "delete",
        "co_return", "co_yield"};
    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      if (toks[k].kind != Tok::kIdent || k + 1 >= toks.size() || k == 0)
        continue;
      const Token& nxt = toks[k + 1];
      const Token& prv = toks[k - 1];
      if (nxt.kind != Tok::kPunct || kDeclNext.count(nxt.text) == 0) continue;
      const bool prev_declish =
          (prv.kind == Tok::kIdent && kNotDeclPrevIdent.count(prv.text) == 0) ||
          (prv.kind == Tok::kPunct && kDeclPrevPunct.count(prv.text) > 0);
      if (prev_declish) locals.insert(toks[k].text);
    }
    static const std::set<std::string> kCompound = {"+=", "-=", "*=", "/="};
    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      if (toks[k].kind != Tok::kPunct || kCompound.count(toks[k].text) == 0)
        continue;
      if (k == 0 || toks[k - 1].kind != Tok::kIdent) continue;
      const std::string& lhs = toks[k - 1].text;
      if (k >= 2) {
        const Token& before = toks[k - 2];
        if (before.kind == Tok::kPunct &&
            (before.text == "." || before.text == "->" || before.text == "]"))
          continue;  // member or element write, e.g. out[i] += v
      }
      if (locals.count(lhs) > 0) continue;
      add("fp-reduction", toks[k - 1].line,
          "'" + lhs + "' is accumulated from inside a parallel_for body; "
          "write into a per-index slot and reduce serially after the loop "
          "(summation order must not depend on thread interleaving)");
    }
  }
}

void pass_unchecked_stod(const Lexed& lx, const AddFn& add) {
  // std::sto* throws std::invalid_argument/out_of_range on malformed input
  // and silently accepts trailing garbage ("1.5x" parses as 1.5). On
  // external input (CSV cells, CLI flags, env specs) that is an ingest
  // crash or a misparse, so every call must sit inside a try/catch that
  // turns the failure into a located error (DESIGN.md §5f).
  static const std::set<std::string> kStoFns = {
      "stod", "stof", "stold", "stoi", "stol",
      "stoll", "stoul", "stoull"};
  const auto& toks = lx.tokens;

  // Token ranges covered by a try block body.
  std::vector<std::pair<std::size_t, std::size_t>> try_ranges;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks, i, "try") || !is_punct(toks, i + 1, "{")) continue;
    const std::size_t close = match_close(toks, i + 1, "{", "}");
    if (close != kNpos) try_ranges.emplace_back(i + 1, close);
  }
  const auto inside_try = [&](std::size_t i) {
    for (const auto& [open, close] : try_ranges) {
      if (i > open && i < close) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || kStoFns.count(toks[i].text) == 0)
      continue;
    if (!is_punct(toks, i + 1, "(")) continue;
    if (prev_is_member_access(toks, i)) continue;  // e.g. parser.stod(...)
    if (inside_try(i)) continue;
    add("unchecked-stod", toks[i].line,
        "std::" + toks[i].text +
            " throws on malformed input and accepts trailing garbage; "
            "wrap it in try/catch with a full-consumption (pos == size) "
            "check and report where the bad value came from");
  }
}

void pass_layering(std::string_view path, std::string_view content,
                   const AddFn& add) {
  // Dependencies point downward: src/util is the foundation and must not
  // include the layers built on it. (Cross-module include *cycles* need
  // the whole tree and are detected in check_tree.)
  if (module_of(std::filesystem::path(std::string(path))) != "util") return;
  static const std::set<std::string> kAbove = {"core", "detectors", "ml"};
  for (const Include& inc : scan_includes(content)) {
    const std::string target = include_module(inc);
    if (kAbove.count(target) > 0) {
      add("layering", inc.line,
          "src/util must not include src/" + target + " ('" + inc.path +
              "'); util is the foundation layer — move the shared piece "
              "down or invert the dependency");
    }
  }
}

}  // namespace

// ---- public API ----------------------------------------------------------

const std::vector<CheckRule>& check_rules() {
  static const std::vector<CheckRule> kRules = {
      {"random-device",
       "std::random_device — nondeterministic entropy source"},
      {"rand", "rand()/srand() — hidden global RNG state"},
      {"wall-clock-seed", "clock reads (time(), *_clock::now()) feeding a "
                          "seed"},
      {"raw-thread", "std::thread or .detach() outside util/thread_pool.cpp"},
      {"raw-mutex", "raw std synchronization primitives outside "
                    "util/mutex.hpp"},
      {"raw-socket", "raw socket syscalls outside net/sockets.*"},
      {"unordered-iteration",
       "iterating an unordered container — hash order is unspecified"},
      {"unguarded-static",
       "mutable function-local static or initialized namespace-scope "
       "variable without a guard"},
      {"fp-reduction", "compound assignment to a captured variable inside a "
                       "parallel_for body"},
      {"unchecked-stod", "raw std::sto* on external input without a "
                         "try/catch"},
      {"layering", "src/util including src/{core,detectors,ml}, or an "
                   "include cycle between modules"},
      {"unused-suppression",
       "reasoned allow() that no longer matches any finding"},
  };
  return kRules;
}

std::vector<CheckViolation> check_source(std::string_view path,
                                         std::string_view content) {
  const Lexed lx = lex(content);
  std::vector<CheckViolation> found;
  const AddFn add = [&](const char* rule, std::size_t line,
                        std::string message) {
    found.push_back({rule, std::string(path), line, std::move(message)});
  };

  pass_random_device(lx, add);
  pass_rand(lx, add);
  pass_wall_clock_seed(lx, add);
  pass_raw_thread(lx, path, add);
  pass_raw_mutex(lx, path, add);
  pass_raw_socket(lx, path, add);
  pass_unordered_iteration(lx, add);
  pass_unguarded_static(lx, add);
  pass_fp_reduction(lx, add);
  pass_unchecked_stod(lx, add);
  pass_layering(path, content, add);

  std::set<std::string> known;
  for (const auto& rule : check_rules()) known.insert(rule.id);
  const std::map<std::size_t, Directive> directives =
      parse_directives(lx.comments, known);

  // A reasoned allow() on the violation's line or the line above wins.
  std::vector<CheckViolation> out;
  std::set<std::size_t> used;  // directive lines that silenced something
  for (auto& v : found) {
    bool suppressed = false;
    for (const std::size_t at : {v.line, v.line > 1 ? v.line - 1 : v.line}) {
      const auto it = directives.find(at);
      if (it != directives.end() && it->second.has_reason &&
          it->second.rules.count(v.rule) > 0) {
        used.insert(at);
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(v));
  }
  for (const auto& [line, d] : directives) {
    if (d.malformed || !d.has_reason) {
      out.push_back({"allow-without-reason", std::string(path), line,
                     "suppression must name a rule and give a reason: "
                     "opprentice-check: allow(<rule>) <why this is safe>"});
      continue;
    }
    if (!d.unknown.empty()) {
      for (const auto& rule : d.unknown) {
        out.push_back({"allow-unknown-rule", std::string(path), line,
                       "allow() names unknown rule '" + rule +
                           "'; run opprentice_check --list-rules for valid "
                           "ids"});
      }
      continue;
    }
    if (used.count(line) == 0) {
      out.push_back({"unused-suppression", std::string(path), line,
                     "suppression matches no finding; remove it (the "
                     "hazard it excused is gone) or fix the rule name"});
    }
  }

  std::sort(out.begin(), out.end(),
            [](const CheckViolation& a, const CheckViolation& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const CheckViolation& a, const CheckViolation& b) {
                          return a.line == b.line && a.rule == b.rule &&
                                 a.message == b.message;
                        }),
            out.end());
  return out;
}

namespace {

bool is_header(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h";
}

// Cross-module include cycles, over *header* includes only. A header
// including across modules makes the dependency structural (every
// includer inherits it); a .cpp reaching into another module's headers is
// a one-way implementation dependency and cannot create a build-order
// hazard on its own (util/*.cpp legitimately include obs/ headers while
// obs/ headers include util/ headers).
void check_module_cycles(
    const std::map<std::string, std::map<std::string, std::string>>& edges,
    LintReport* report) {
  // edges: module -> included module -> example "file:line ('include')".
  const auto reaches = [&](const std::string& from, const std::string& to) {
    std::set<std::string> seen;
    std::vector<std::string> stack = {from};
    while (!stack.empty()) {
      const std::string at = stack.back();
      stack.pop_back();
      if (!seen.insert(at).second) continue;
      const auto it = edges.find(at);
      if (it == edges.end()) continue;
      for (const auto& [next, example] : it->second) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
    return false;
  };
  std::set<std::pair<std::string, std::string>> reported;
  for (const auto& [a, outs] : edges) {
    for (const auto& [b, example] : outs) {
      if (a == b) continue;
      auto key = std::minmax(a, b);
      if (reported.count({key.first, key.second}) > 0) continue;
      if (reaches(b, a)) {
        reported.insert({key.first, key.second});
        std::ostringstream msg;
        msg << "include cycle between modules '" << a << "' and '" << b
            << "': " << example;
        const auto back = edges.find(b);
        if (back != edges.end()) {
          const auto direct = back->second.find(a);
          if (direct != back->second.end()) {
            msg << " while " << direct->second;
          }
        }
        msg << " — break the cycle by splitting the shared interface into "
               "the lower module";
        report->fail("layering", msg.str());
      }
    }
  }
}

}  // namespace

LintReport check_tree(const std::vector<std::string>& roots) {
  LintReport report;
  const std::vector<std::filesystem::path> files =
      list_cpp_sources(roots, &report);
  std::map<std::string, std::map<std::string, std::string>> header_edges;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ++report.checks_run;
    const std::string content = buffer.str();
    for (const auto& v : check_source(file.string(), content)) {
      report.fail_at(v.rule, v.message, v.file, v.line);
    }
    if (is_header(file)) {
      const std::string from = module_of(file);
      if (from.empty()) continue;
      for (const Include& inc : scan_includes(content)) {
        const std::string to = include_module(inc);
        if (to.empty() || to == from) continue;
        auto& example = header_edges[from][to];
        if (example.empty()) {
          std::ostringstream ex;
          ex << file.string() << ':' << inc.line << " includes '" << inc.path
             << "'";
          example = ex.str();
        }
      }
    }
  }
  check_module_cycles(header_edges, &report);
  return report;
}

}  // namespace opprentice::tools
