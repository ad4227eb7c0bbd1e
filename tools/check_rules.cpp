#include "tools/check_rules.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace opprentice::tools {
namespace {

using namespace cpp;  // shared tokenizer (tools/lint_common.hpp)

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
void check_namespace_declaration(const std::vector<cpp::Token>& toks,
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
  const cpp::Lexed lx = cpp::lex(content);
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
  const std::map<std::size_t, cpp::Directive> directives =
      cpp::parse_directives(lx.comments, "opprentice-check:", known);

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
      for (const Include& inc : cpp::scan_includes(content)) {
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

LintReport check_self_test() {
  LintReport result;
  const TempTree tree("opprentice-check-selftest");

  tree.plant("src/fixture_random_device.cpp",
             R"cpp(#include <random>

std::uint64_t fresh_entropy() {
  std::random_device dev;
  return dev();
}
)cpp");
  tree.plant("src/fixture_rand.cpp",
             R"cpp(#include <cstdlib>

int jitter() { return std::rand() % 3; }
)cpp");
  tree.plant("src/fixture_wall_clock_seed.cpp",
             R"cpp(#include <ctime>

unsigned make_run_seed() {
  const unsigned seed = static_cast<unsigned>(std::time(nullptr));
  return seed;
}
)cpp");
  tree.plant("src/fixture_raw_thread.cpp",
             R"cpp(#include <thread>

void run_blocking(void (*task)()) {
  std::thread runner(task);
  runner.join();
}
)cpp");
  tree.plant("src/fixture_unordered_iteration.cpp",
             R"cpp(#include <string>
#include <unordered_map>

std::unordered_map<std::string, double> g_totals;

double sum_totals() {
  double sum = 0.0;
  for (const auto& entry : g_totals) sum += entry.second;
  return sum;
}
)cpp");
  tree.plant("src/fixture_unguarded_static.cpp",
             R"cpp(int next_ticket() {
  static int counter = 0;
  return ++counter;
}
)cpp");
  // The namespace-scope half: only the plain initialized global fires.
  tree.plant("src/fixture_unguarded_global.cpp",
             R"cpp(#include <atomic>

namespace fixture {
double g_total = 0.0;
const double kScale = 2.0;
std::atomic<int> g_hits = 0;
thread_local int t_depth = 0;
int g_guarded OPPRENTICE_GUARDED_BY(g_mu) = 0;
}  // namespace fixture
)cpp");
  tree.plant("src/fixture_raw_mutex.cpp",
             R"cpp(#include <mutex>

std::mutex g_serial_mutex;
)cpp");
  tree.plant("src/fixture_raw_socket.cpp",
             R"cpp(#include <sys/socket.h>

int open_listener() { return ::socket(AF_INET, SOCK_STREAM, 0); }
)cpp");
  tree.plant("src/fixture_unchecked_stod.cpp",
             R"cpp(#include <string>

double parse_ratio(const std::string& text) { return std::stod(text); }
)cpp");
  tree.plant("src/fixture_fp_reduction.cpp",
             R"cpp(#include <cstddef>
#include <vector>

double parallel_sum(const std::vector<double>& values) {
  double total = 0.0;
  opprentice::util::parallel_for(values.size(), [&](std::size_t i) {
    total += values[i];
  });
  return total;
}
)cpp");
  // Reasoned suppressions (same line and line above) must stay silent.
  tree.plant("src/fixture_suppressed.cpp",
             R"cpp(#include <random>

std::uint32_t demo_entropy() {
  std::random_device dev;  // opprentice-check: allow(random-device) fixture: exercises a reasoned same-line suppression
  return dev();
}

int bump() {
  // opprentice-check: allow(unguarded-static) fixture: exercises a line-above suppression
  static int hits = 0;
  return ++hits;
}
)cpp");
  tree.plant("src/fixture_bare_allow.cpp",
             R"cpp(// opprentice-check: allow(rand)
const int bare_allow_placeholder = 0;
)cpp");
  tree.plant("src/fixture_unknown_allow.cpp",
             R"cpp(// opprentice-check: allow(no-such-rule) the rule id is misspelled on purpose
const int unknown_allow_placeholder = 0;
)cpp");
  // Reasoned, well-formed, and matching nothing: itself an error.
  tree.plant("src/fixture_unused_allow.cpp",
             R"cpp(// opprentice-check: allow(rand) fixture: nothing on this line draws randomness
const int unused_allow_placeholder = 0;
)cpp");
  // Layering, upward include: util reaching into ml. The obs include is
  // allowed (observability sits beside util, not above it).
  tree.plant("src/util/fixture_layering.cpp",
             R"cpp(#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"

const int layering_placeholder = 0;
)cpp");
  // Layering, include cycle: two headers across modules including each
  // other. Exactly one cycle must be reported for the pair.
  tree.plant("src/alpha/widget.hpp",
             R"cpp(#pragma once
#include "beta/gadget.hpp"
)cpp");
  tree.plant("src/beta/gadget.hpp",
             R"cpp(#pragma once
#include "alpha/widget.hpp"
)cpp");
  // Not a C++ extension: must be skipped by the walk.
  tree.plant("src/notes.txt", "std::rand();\n");

  const LintReport scanned = check_tree({tree.root().string()});

  std::map<std::string, std::size_t> tally;
  for (const auto& issue : scanned.issues) ++tally[issue.check];

  std::map<std::string, std::size_t> expected;
  for (const auto& rule : check_rules()) expected[rule.id] = 1;
  expected["layering"] = 2;  // upward include + one cycle report
  expected["unguarded-static"] = 2;  // function-local + namespace scope
  expected["allow-without-reason"] = 1;
  expected["allow-unknown-rule"] = 1;

  for (const auto& [rule, count] : expected) {
    ++result.checks_run;
    const std::size_t got = tally.count(rule) > 0 ? tally[rule] : 0;
    if (got != count) {
      std::ostringstream msg;
      msg << "rule '" << rule << "' fired " << got
          << " times on the planted tree, expected exactly " << count;
      result.fail("self-test", msg.str());
    }
  }
  ++result.checks_run;  // nothing beyond the expectations fired
  for (const auto& [rule, count] : tally) {
    if (expected.count(rule) == 0) {
      std::ostringstream msg;
      msg << "unexpected '" << rule << "' fired " << count
          << " times on the planted tree";
      result.fail("self-test", msg.str());
    }
  }
  ++result.checks_run;  // extension filter: 18 planted sources, notes.txt skipped
  if (scanned.checks_run != 18) {
    std::ostringstream msg;
    msg << "walk scanned " << scanned.checks_run
        << " files, expected the 18 planted C++ fixtures";
    result.fail("self-test", msg.str());
  }
  return result;
}

}  // namespace opprentice::tools
