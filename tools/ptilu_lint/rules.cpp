// Rule implementations and report rendering for ptilu-lint. See lint.hpp
// for the rule table and docs/STATIC_ANALYSIS.md §4 for the rationale.
#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lexer.hpp"

namespace ptilu::lint {

namespace {

const char* const kUnorderedIter = "determinism-unordered-iter";
const char* const kBannedCalls = "determinism-banned-calls";
const char* const kCollectiveTag = "spmd-collective-tag";
const char* const kPhaseCoverage = "spmd-phase-coverage";
const char* const kAssertMacro = "assert-macro";
const char* const kFloatInModel = "float-in-model";

/// Which rule families apply to a file, derived from its repo-relative
/// path. src/sim/ is the machine *implementation* — the SPMD protocol
/// rules (collective-tag, phase-coverage) apply to protocol *users*, not
/// to the mechanism itself, which declares/charges on behalf of callers.
struct Scope {
  bool in_src = false;
  bool in_include = false;
  bool in_sim = false;     // src/sim/ or include/ptilu/sim/
  bool driver = false;     // src/ minus src/sim/
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

Scope classify(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  Scope scope;
  scope.in_src = starts_with(path, "src/");
  scope.in_include = starts_with(path, "include/");
  scope.in_sim =
      starts_with(path, "src/sim/") || starts_with(path, "include/ptilu/sim/");
  scope.driver = scope.in_src && !starts_with(path, "src/sim/");
  return scope;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the token after the ">" matching the "<" at `open`. Works on
/// single-char ">" tokens (the lexer never fuses ">>"), so nested template
/// argument lists close one level per token.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "<")) ++depth;
    if (is_punct(toks[i], ">") && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// Index of the ")" matching the "(" at `open` (or toks.size()).
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

/// Index of the "]" matching the "[" at `open` (or toks.size()).
std::size_t match_bracket(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "[")) ++depth;
    if (is_punct(toks[i], "]") && --depth == 0) return i;
  }
  return toks.size();
}

bool member_access_before(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
}

void add_finding(std::vector<Finding>& out, const LexedSource& lexed,
                 const std::string& rule, const std::string& file, const Token& at,
                 std::string message) {
  out.push_back(Finding{rule, file, at.line, at.col, std::move(message),
                        is_allowed(lexed.allowed, rule, at.line)});
}

// ---------------------------------------------------------------------------
// determinism-unordered-iter
// ---------------------------------------------------------------------------

void rule_unordered_iter(const std::string& file, const LexedSource& lexed,
                         std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;

  // Pass 1: names declared with an unordered container type — including
  // wrapped ones (std::vector<std::unordered_map<...>> ghost), where the
  // outer template's extra ">" tokens follow the inner match.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "unordered_map") && !is_ident(toks[i], "unordered_set"))
      continue;
    if (!is_punct(toks[i + 1], "<")) continue;
    std::size_t j = skip_angles(toks, i + 1);
    while (j < toks.size() && is_punct(toks[j], ">")) ++j;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") || is_ident(toks[j], "const")))
      ++j;
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      unordered_names.insert(toks[j].text);
    }
  }
  if (unordered_names.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (is_ident(toks[i], "for") && is_punct(toks[i + 1], "(")) {
      const std::size_t close = match_paren(toks, i + 1);
      // The range-for ':' sits at nesting depth 0 *within* the for parens.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (is_punct(toks[k], "(") || is_punct(toks[k], "[") || is_punct(toks[k], "{"))
          ++depth;
        if (is_punct(toks[k], ")") || is_punct(toks[k], "]") || is_punct(toks[k], "}"))
          --depth;
        if (depth == 0 && is_punct(toks[k], ":")) {
          colon = k;
          break;
        }
      }
      if (colon == 0) continue;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (toks[k].kind == TokKind::kIdent && unordered_names.count(toks[k].text)) {
          add_finding(out, lexed, kUnorderedIter, file, toks[k],
                      "range-for over std::unordered_ container '" + toks[k].text +
                          "': hash iteration order is implementation-defined and "
                          "must not feed modeled output — iterate sorted keys, or "
                          "suppress with a justification if order provably cannot "
                          "escape");
          break;
        }
      }
    }
    // Explicit iterator traversal: name.begin(), name->cbegin(), and the
    // subscripted form name[r].begin() (a container-of-unordered element).
    if (toks[i].kind == TokKind::kIdent && unordered_names.count(toks[i].text)) {
      std::size_t j = i + 1;
      while (j < toks.size() && is_punct(toks[j], "[")) {
        j = match_bracket(toks, j) + 1;
      }
      if (j + 2 < toks.size() &&
          (is_punct(toks[j], ".") || is_punct(toks[j], "->")) &&
          (is_ident(toks[j + 1], "begin") || is_ident(toks[j + 1], "cbegin") ||
           is_ident(toks[j + 1], "rbegin") || is_ident(toks[j + 1], "crbegin")) &&
          is_punct(toks[j + 2], "(")) {
        add_finding(out, lexed, kUnorderedIter, file, toks[i],
                    "iterator traversal of std::unordered_ container '" +
                        toks[i].text +
                        "': hash iteration order is implementation-defined and "
                        "must not feed modeled output");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-banned-calls
// ---------------------------------------------------------------------------

void rule_banned_calls(const std::string& file, const LexedSource& lexed,
                       std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "random_device") {
      add_finding(out, lexed, kBannedCalls, file, toks[i],
                  "std::random_device is nondeterministic; use ptilu::Rng or "
                  "mix64/vertex_key (support/rng.hpp) with an explicit seed");
      continue;
    }
    const bool call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    if (!call) continue;
    if (t == "now") {
      // Clock::now() in any spelling is a wall-clock read.
      add_finding(out, lexed, kBannedCalls, file, toks[i],
                  "wall-clock now() in library code: modeled paths must be "
                  "deterministic; wall timing belongs in bench/ harnesses (or "
                  "carry a justified suppression, as support/timer.hpp does)");
      continue;
    }
    if (member_access_before(toks, i)) continue;  // obj.time etc. is a member
    if (t == "rand" || t == "srand") {
      add_finding(out, lexed, kBannedCalls, file, toks[i],
                  t + "() is nondeterministic across platforms; use ptilu::Rng "
                      "with an explicit seed");
    } else if (t == "time" || t == "clock" || t == "gettimeofday") {
      add_finding(out, lexed, kBannedCalls, file, toks[i],
                  t + "() reads the wall clock; modeled paths must be "
                      "deterministic (wall timing belongs in bench/ harnesses)");
    }
  }
}

// ---------------------------------------------------------------------------
// spmd-collective-tag
// ---------------------------------------------------------------------------

bool is_collective_name(const Token& t) {
  return is_ident(t, "allreduce_sum") || is_ident(t, "allreduce_max") ||
         is_ident(t, "allreduce_sum_ll") || is_ident(t, "collective") ||
         is_ident(t, "declare_collective");
}

void rule_collective_tag(const std::string& file, const LexedSource& lexed,
                         std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_collective_name(toks[i])) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    // Member calls only (machine.collective / ctx.declare_collective):
    // `Machine::allreduce_sum(...)` definitions and doc references are not
    // call sites.
    if (!member_access_before(toks, i)) continue;
    const std::size_t close = match_paren(toks, i + 1);
    bool tagged = false;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (toks[k].kind == TokKind::kString) {
        tagged = true;
        break;
      }
    }
    if (!tagged) {
      add_finding(out, lexed, kCollectiveTag, file, toks[i],
                  toks[i].text +
                      "() without a call-site tag literal: conformance reports "
                      "need the site to name both halves of a divergent "
                      "collective (pass e.g. \"driver/phase\")");
    }
  }
}

// ---------------------------------------------------------------------------
// spmd-phase-coverage
// ---------------------------------------------------------------------------

bool is_comm_name(const Token& t) {
  return is_ident(t, "send_in_place") || is_ident(t, "send_indices") ||
         is_ident(t, "send_reals") || is_ident(t, "recv_all");
}

void rule_phase_coverage(const std::string& file, const LexedSource& lexed,
                         std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;
  int depth = 0;
  // Brace depths at which a ScopedPhase object is alive; the phase dies
  // when its enclosing block closes.
  std::vector<int> phase_depths;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    if (is_punct(toks[i], "}")) {
      --depth;
      while (!phase_depths.empty() && phase_depths.back() > depth) {
        phase_depths.pop_back();
      }
    }
    if (is_ident(toks[i], "ScopedPhase")) {
      phase_depths.push_back(depth);
      continue;
    }
    // A call, plain or with template arguments (send_in_place<real>(...)).
    if (is_comm_name(toks[i]) && i + 1 < toks.size() &&
        (is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "<")) &&
        member_access_before(toks, i) && phase_depths.empty()) {
      add_finding(out, lexed, kPhaseCoverage, file, toks[i],
                  toks[i].text +
                      "() outside any lexical sim::ScopedPhase scope: traces and "
                      "metrics could not attribute this traffic to an algorithm "
                      "phase (open a phase, or suppress when the caller is "
                      "always phased)");
    }
  }
}

// ---------------------------------------------------------------------------
// assert-macro
// ---------------------------------------------------------------------------

void rule_assert_macro(const std::string& file, const LexedSource& lexed,
                       std::vector<Finding>& out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i], "assert") && is_punct(toks[i + 1], "(") &&
        !member_access_before(toks, i)) {
      add_finding(out, lexed, kAssertMacro, file, toks[i],
                  "raw assert() is banned: use PTILU_ASSERT (debug invariant) or "
                  "PTILU_CHECK (always-on validation), which throw ptilu::Error "
                  "with location info and are clang-tidy-registered");
    }
  }
}

// ---------------------------------------------------------------------------
// float-in-model
// ---------------------------------------------------------------------------

void rule_float_in_model(const std::string& file, const LexedSource& lexed,
                         std::vector<Finding>& out) {
  for (const Token& tok : lexed.tokens) {
    if (is_ident(tok, "float")) {
      add_finding(out, lexed, kFloatInModel, file, tok,
                  "float in the simulator: modeled time and the metrics "
                  "accounting identities are double-precision bit-exact; use "
                  "double or an integer type");
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      kUnorderedIter, kBannedCalls, kCollectiveTag,
      kPhaseCoverage, kAssertMacro, kFloatInModel,
  };
  return kNames;
}

bool known_rule(const std::string& rule) {
  const auto& names = rule_names();
  return std::find(names.begin(), names.end(), rule) != names.end();
}

std::vector<Finding> lint_source(const std::string& path, const std::string& text) {
  const Scope scope = classify(path);
  const LexedSource lexed = lex(text);
  std::vector<Finding> out;
  if (scope.in_src) rule_unordered_iter(path, lexed, out);
  if (scope.in_src || scope.in_include) rule_banned_calls(path, lexed, out);
  if (scope.driver) rule_collective_tag(path, lexed, out);
  if (scope.driver) rule_phase_coverage(path, lexed, out);
  if (scope.in_src || scope.in_include) rule_assert_macro(path, lexed, out);
  if (scope.in_sim) rule_float_in_model(path, lexed, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  return out;
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ptilu-lint: cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string generic_relative(const std::filesystem::path& path,
                             const std::filesystem::path& root) {
  return std::filesystem::relative(path, root).generic_string();
}

}  // namespace

Report lint_files(const std::filesystem::path& root,
                  const std::vector<std::string>& files) {
  Report report;
  for (const std::string& file : files) {
    std::filesystem::path path(file);
    if (path.is_relative()) path = root / path;
    const std::string rel = generic_relative(path, root);
    report.files.push_back(rel);
    const std::vector<Finding> found = lint_source(rel, read_file(path));
    report.findings.insert(report.findings.end(), found.begin(), found.end());
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  return report;
}

Report lint_tree(const std::filesystem::path& root) {
  std::vector<std::string> files;
  for (const char* top : {"src", "include"}) {
    const std::filesystem::path dir = root / top;
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
        files.push_back(generic_relative(entry.path(), root));
      }
    }
  }
  std::sort(files.begin(), files.end());
  return lint_files(root, files);
}

std::size_t unsuppressed_count(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::string to_text(const Report& report, bool show_suppressed) {
  std::ostringstream out;
  std::size_t suppressed = 0;
  for (const Finding& f : report.findings) {
    if (f.suppressed) ++suppressed;
    if (f.suppressed && !show_suppressed) continue;
    out << f.file << ':' << f.line << ':' << f.col << ": [" << f.rule << "] "
        << f.message;
    if (f.suppressed) out << "  (suppressed)";
    out << '\n';
  }
  out << "ptilu-lint: " << report.files.size() << " file(s), "
      << report.findings.size() << " finding(s): "
      << (report.findings.size() - suppressed) << " unsuppressed, " << suppressed
      << " suppressed\n";
  return out.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::ostringstream out;
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

}  // namespace

std::string to_json(const Report& report) {
  std::ostringstream out;
  const std::size_t total = report.findings.size();
  const std::size_t unsuppressed = unsuppressed_count(report.findings);
  out << "{\n  \"schema\": \"ptilu-lint-v1\",\n";
  out << "  \"files_scanned\": " << report.files.size() << ",\n";
  out << "  \"rules\": [";
  for (std::size_t i = 0; i < rule_names().size(); ++i) {
    out << (i ? ", " : "") << '"' << rule_names()[i] << '"';
  }
  out << "],\n";
  out << "  \"counts\": {\"total\": " << total << ", \"suppressed\": "
      << (total - unsuppressed) << ", \"unsuppressed\": " << unsuppressed << "},\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i ? "," : "") << "\n    {\"rule\": \"" << json_escape(f.rule)
        << "\", \"file\": \"" << json_escape(f.file) << "\", \"line\": " << f.line
        << ", \"col\": " << f.col << ", \"suppressed\": "
        << (f.suppressed ? "true" : "false") << ", \"message\": \""
        << json_escape(f.message) << "\"}";
  }
  out << (report.findings.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

}  // namespace ptilu::lint
