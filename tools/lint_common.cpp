#include "tools/lint_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
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

std::string format_report(const LintReport& report, bool verbose) {
  std::ostringstream out;
  if (verbose || !report.ok()) {
    for (const auto& issue : report.issues) {
      out << "FAIL [" << issue.check << "] ";
      if (!issue.file.empty()) out << issue.file << ':' << issue.line << ": ";
      out << issue.message << '\n';
    }
  }
  out << (report.ok() ? "OK" : "FAIL") << ": " << report.checks_run
      << " checks, " << report.issues.size() << " issue"
      << (report.issues.size() == 1 ? "" : "s") << '\n';
  return out.str();
}

namespace {

// Minimal JSON string escaping (SARIF payloads are ASCII-ish linter
// messages; control characters are emitted as \u00XX).
void append_json_escaped(std::ostringstream& out, std::string_view s) {
  static const char* const kHex = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

void append_json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  append_json_escaped(out, s);
  out << '"';
}

}  // namespace

std::string format_sarif(const LintReport& report, std::string_view tool_name,
                         std::string_view strip_prefix) {
  // Stable rule table: unique check ids in first-appearance order.
  std::vector<std::string> rule_ids;
  for (const auto& issue : report.issues) {
    if (std::find(rule_ids.begin(), rule_ids.end(), issue.check) ==
        rule_ids.end()) {
      rule_ids.push_back(issue.check);
    }
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": ";
  append_json_string(out, tool_name);
  out << ",\n          \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "            {\"id\": ";
    append_json_string(out, rule_ids[i]);
    out << "}";
  }
  out << (rule_ids.empty() ? "]" : "\n          ]")
      << "\n        }\n      },\n      \"results\": [";
  for (std::size_t i = 0; i < report.issues.size(); ++i) {
    const LintIssue& issue = report.issues[i];
    out << (i == 0 ? "\n" : ",\n") << "        {\n          \"ruleId\": ";
    append_json_string(out, issue.check);
    out << ",\n          \"level\": \"error\",\n          \"message\": "
        << "{\"text\": ";
    append_json_string(out, issue.message);
    out << "}";
    if (!issue.file.empty()) {
      std::string_view uri = issue.file;
      if (!strip_prefix.empty() && uri.substr(0, strip_prefix.size()) ==
                                       strip_prefix) {
        uri.remove_prefix(strip_prefix.size());
      }
      out << ",\n          \"locations\": [{\"physicalLocation\": "
          << "{\"artifactLocation\": {\"uri\": ";
      append_json_string(out, uri);
      out << "}, \"region\": {\"startLine\": "
          << (issue.line > 0 ? issue.line : 1) << "}}}]";
    }
    out << "\n        }";
  }
  out << (report.issues.empty() ? "]" : "\n      ]")
      << "\n    }\n  ]\n}\n";
  return out.str();
}

TempTree::TempTree(std::string_view prefix) {
  // Unique without entropy: pid separates concurrent ctest processes, the
  // counter separates instances within one process.
  static std::atomic<std::uint64_t> instance{0};
  const std::uint64_t n = instance.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream name;
  name << prefix << '-' << ::getpid() << '-' << n;
  root_ = std::filesystem::temp_directory_path() / name.str();
  std::filesystem::create_directories(root_);
}

TempTree::~TempTree() {
  std::error_code ec;  // best-effort cleanup; never throw from a destructor
  std::filesystem::remove_all(root_, ec);
}

std::filesystem::path TempTree::plant(const std::filesystem::path& rel,
                                      std::string_view content) const {
  const std::filesystem::path path = root_ / rel;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << content;
  return path;
}

namespace {

bool is_checked_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

bool in_skipped_directory(const std::filesystem::path& p) {
  for (const auto& part : p.parent_path()) {
    const std::string s = part.string();
    if (s == ".git" || s == "bench-cache" || s.rfind("build", 0) == 0 ||
        s.rfind("cmake-build", 0) == 0) {
      return true;
    }
  }
  return false;
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
    for (auto it = std::filesystem::recursive_directory_iterator(
             root, std::filesystem::directory_options::skip_permission_denied);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      const std::filesystem::path& p = it->path();
      if (is_checked_extension(p) && !in_skipped_directory(p)) {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

namespace cpp {

namespace {

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

}  // namespace

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

namespace {

bool tok_is(const std::vector<Token>& toks, std::size_t i, Tok kind,
            std::string_view text) {
  return i < toks.size() && toks[i].kind == kind && toks[i].text == text;
}

}  // namespace

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

namespace {

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

}  // namespace

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
    std::string_view marker, const std::set<std::string>& known_rules) {
  std::map<std::size_t, Directive> out;
  for (const auto& [line, raw] : comments) {
    // The marker must open the comment; mentions of the syntax in prose
    // (like the checkers' own documentation) are not directives.
    const std::string_view text = trim(raw);
    if (text.substr(0, marker.size()) != marker) continue;
    Directive d;
    std::string_view rest = trim(text.substr(marker.size()));
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

}  // namespace cpp

}  // namespace opprentice::tools
