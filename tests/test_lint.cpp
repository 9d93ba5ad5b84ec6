// ptilu-lint self-tests: per-rule fixture triples (violating / clean /
// suppressed) under tests/lint_fixtures/, plus unit coverage of the lexer
// (comment/string/raw-string immunity), the suppression syntax, the path
// scoping, and the ptilu-lint-v1 JSON rendering. The fixture directory is
// injected by CMake as PTILU_LINT_FIXTURE_DIR.
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace {

using ptilu::lint::Finding;
using ptilu::lint::lint_source;

std::string fixture_path(const std::string& rule, const std::string& kind,
                         const std::string& ext) {
  return std::string(PTILU_LINT_FIXTURE_DIR) + "/" + rule + "/" + kind + ext;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Virtual repo-relative path each rule's fixtures are linted under: the
/// rules are path-scoped (see lint.hpp), so the harness places fixtures in
/// a directory where the rule under test applies.
const std::map<std::string, std::pair<std::string, std::string>>& fixture_spec() {
  static const std::map<std::string, std::pair<std::string, std::string>> kSpec = {
      {"determinism-unordered-iter", {"src/pilut/fixture.cpp", ".cpp"}},
      {"determinism-banned-calls", {"src/support/fixture.cpp", ".cpp"}},
      {"spmd-collective-tag", {"src/pilut/fixture.cpp", ".cpp"}},
      {"spmd-phase-coverage", {"src/pilut/fixture.cpp", ".cpp"}},
      {"assert-macro", {"include/ptilu/support/fixture.hpp", ".hpp"}},
      {"float-in-model", {"src/sim/fixture.cpp", ".cpp"}},
  };
  return kSpec;
}

std::vector<Finding> lint_fixture(const std::string& rule, const std::string& kind) {
  const auto& spec = fixture_spec().at(rule);
  return lint_source(spec.first, read_file(fixture_path(rule, kind, spec.second)));
}

class LintRuleFixtures : public ::testing::TestWithParam<std::string> {};

TEST_P(LintRuleFixtures, ViolatingFixtureFires) {
  const std::string rule = GetParam();
  const std::vector<Finding> findings = lint_fixture(rule, "violating");
  ASSERT_FALSE(findings.empty()) << rule << ": violating fixture found nothing";
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << "cross-rule contamination at line " << f.line;
    EXPECT_FALSE(f.suppressed) << rule << " finding at line " << f.line;
    EXPECT_GT(f.line, 0);
    EXPECT_GT(f.col, 0);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST_P(LintRuleFixtures, CleanFixtureIsSilent) {
  const std::string rule = GetParam();
  const std::vector<Finding> findings = lint_fixture(rule, "clean");
  for (const Finding& f : findings) {
    ADD_FAILURE() << rule << ": clean fixture tripped [" << f.rule << "] at line "
                  << f.line << ": " << f.message;
  }
}

TEST_P(LintRuleFixtures, SuppressedFixtureIsCoveredButCounted) {
  const std::string rule = GetParam();
  const std::vector<Finding> findings = lint_fixture(rule, "suppressed");
  ASSERT_FALSE(findings.empty()) << rule << ": suppressed fixture found nothing";
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule);
    EXPECT_TRUE(f.suppressed) << rule << ": unsuppressed finding at line " << f.line;
  }
  EXPECT_EQ(ptilu::lint::unsuppressed_count(findings), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintRuleFixtures,
                         ::testing::ValuesIn(ptilu::lint::rule_names()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(LintRules, EveryRuleHasFixtureTriple) {
  // The parameterized suite above iterates rule_names(); this pins that the
  // fixture spec covers exactly the registered rules, so adding a rule
  // without fixtures fails loudly.
  ASSERT_EQ(fixture_spec().size(), ptilu::lint::rule_names().size());
  for (const std::string& rule : ptilu::lint::rule_names()) {
    EXPECT_TRUE(fixture_spec().count(rule)) << "no fixture mapping for " << rule;
  }
}

TEST(LintRules, PhaseCoverageSeesInPlaceSends) {
  // The in-place send is traffic whether or not it names its element type.
  const std::string text =
      "void f(ptilu::sim::RankContext& ctx) {\n"
      "  ctx.send_in_place<double>(0, 1, 4);\n"
      "  ctx.send_in_place(0, 2, 8);\n"
      "}\n";
  const auto findings = lint_source("src/pilut/fake.cpp", text);
  ASSERT_EQ(findings.size(), 2u);
  for (std::size_t k = 0; k < findings.size(); ++k) {
    EXPECT_EQ(findings[k].rule, "spmd-phase-coverage");
    EXPECT_EQ(findings[k].line, static_cast<int>(k) + 2);
  }
}

// ---------------------------------------------------------------------------
// Lexer immunity: banned spellings inside comments / strings / raw strings.
// ---------------------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsCannotTrip) {
  const std::string text = R"__(
// rand() time(nullptr) now() assert(x) float
/* std::random_device in a block comment
   for (auto& kv : ghost) */
const char* a = "rand() and assert(yes) and float";
const char* b = R"x(raw: now() random_device assert(1))x";
char c = 'f';
)__";
  EXPECT_TRUE(lint_source("src/sim/fake.cpp", text).empty());
  EXPECT_TRUE(lint_source("include/ptilu/fake.hpp", text).empty());
}

TEST(LintLexer, PreprocessorLinesAreSkipped) {
  const std::string text =
      "#include <ctime>\n"
      "#define BAD time(nullptr)\n"
      "#define WORSE \\\n  rand()\n"
      "int x = 0;\n";
  EXPECT_TRUE(lint_source("src/support/fake.cpp", text).empty());
}

TEST(LintLexer, HexFloatsAndDigitSeparatorsLex) {
  // 0x1.0p-53 and 1'000'000 must not desync the token stream (a desync
  // would e.g. swallow the assert( that follows).
  const std::string text =
      "double d = 0x1.0p-53;\n"
      "int n = 1'000'000;\n"
      "void f() { assert(n > 0); }\n";
  const auto findings = lint_source("src/support/fake.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "assert-macro");
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// Suppression semantics.
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAndLineAbove) {
  const std::string above =
      "// ptilu-lint: allow(assert-macro)\n"
      "void f(int n) { assert(n); }\n";
  const std::string same =
      "void f(int n) { assert(n); }  // ptilu-lint: allow(assert-macro)\n";
  const std::string unrelated =
      "// ptilu-lint: allow(float-in-model)\n"
      "void f(int n) { assert(n); }\n";
  for (const std::string* text : {&above, &same}) {
    const auto findings = lint_source("src/support/fake.cpp", *text);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].suppressed);
  }
  const auto findings = lint_source("src/support/fake.cpp", unrelated);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed) << "wrong rule name must not suppress";
}

TEST(LintSuppression, MultiRuleAllowList) {
  const std::string text =
      "// ptilu-lint: allow(assert-macro, determinism-banned-calls)\n"
      "void f(int n) { assert(n); (void)rand(); }\n";
  const auto findings = lint_source("src/support/fake.cpp", text);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_TRUE(findings[1].suppressed);
}

TEST(LintSuppression, DoesNotReachPastNextLine) {
  const std::string text =
      "// ptilu-lint: allow(assert-macro)\n"
      "int unrelated = 0;\n"
      "void f(int n) { assert(n); }\n";
  const auto findings = lint_source("src/support/fake.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// Path scoping.
// ---------------------------------------------------------------------------

TEST(LintScope, RulesGateOnPath) {
  const std::string asserts = "void f(int n) { assert(n); }\n";
  EXPECT_FALSE(lint_source("src/ilu/fake.cpp", asserts).empty());
  EXPECT_FALSE(lint_source("include/ptilu/ilu/fake.hpp", asserts).empty());
  EXPECT_TRUE(lint_source("tests/fake.cpp", asserts).empty());
  EXPECT_TRUE(lint_source("bench/fake.cpp", asserts).empty());

  const std::string floats = "float f = 0.0F;\n";
  EXPECT_FALSE(lint_source("src/sim/fake.cpp", floats).empty());
  EXPECT_FALSE(lint_source("include/ptilu/sim/fake.hpp", floats).empty());
  EXPECT_TRUE(lint_source("src/ilu/fake.cpp", floats).empty());

  // The machine implementation is exempt from the protocol-user rules.
  const std::string untagged =
      "void f(M& machine) { machine.collective(8); }\n";
  EXPECT_FALSE(lint_source("src/pilut/fake.cpp", untagged).empty());
  EXPECT_TRUE(lint_source("src/sim/machine_impl.cpp", untagged).empty());
}

TEST(LintScope, WallClockAllowedInBench) {
  const std::string text = "double t() { return Clock::now().time_since_epoch().count(); }\n";
  EXPECT_TRUE(lint_source("bench/fake.cpp", text).empty());
  EXPECT_FALSE(lint_source("src/support/fake.cpp", text).empty());
}

// ---------------------------------------------------------------------------
// Wrapped declarations and member-access discrimination.
// ---------------------------------------------------------------------------

TEST(LintUnordered, WrappedContainerDeclarationIsTracked) {
  const std::string text =
      "#include <unordered_map>\n"
      "void f(int p) {\n"
      "  std::vector<std::unordered_map<int, double>> ghost(p);\n"
      "  for (const auto& [k, v] : ghost[0]) { (void)k; (void)v; }\n"
      "}\n";
  const auto findings = lint_source("src/pilut/fake.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-unordered-iter");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintBannedCalls, MemberNamedTimeIsNotACall) {
  const std::string text =
      "struct S { double time; };\n"
      "double f(S s) { return s.time; }\n"
      "double g(S* s) { return s->time; }\n";
  EXPECT_TRUE(lint_source("src/sim/fake.cpp", text).empty());
}

TEST(LintCollectiveTag, DefinitionIsNotACallSite) {
  const std::string text =
      "double Machine::allreduce_sum(const F& fn, std::string_view site) {\n"
      "  return run(fn, site);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/pilut/fake.cpp", text).empty());
}

// ---------------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------------

TEST(LintReport, JsonShape) {
  ptilu::lint::Report report;
  report.files = {"src/a.cpp", "src/b.cpp"};
  report.findings.push_back(Finding{"assert-macro", "src/a.cpp", 3, 7,
                                    "message with \"quotes\" and\nnewline", false});
  report.findings.push_back(
      Finding{"float-in-model", "src/b.cpp", 1, 1, "plain", true});
  const std::string json = ptilu::lint::to_json(report);
  EXPECT_NE(json.find("\"schema\": \"ptilu-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << "quotes escaped";
  EXPECT_NE(json.find("and\\nnewline"), std::string::npos) << "newline escaped";
  for (const std::string& rule : ptilu::lint::rule_names()) {
    EXPECT_NE(json.find('"' + rule + '"'), std::string::npos);
  }
}

TEST(LintReport, TextShapeAndSuppressedVisibility) {
  ptilu::lint::Report report;
  report.files = {"src/a.cpp"};
  report.findings.push_back(Finding{"assert-macro", "src/a.cpp", 3, 7, "msg", true});
  const std::string hidden = ptilu::lint::to_text(report, /*show_suppressed=*/false);
  EXPECT_EQ(hidden.find("src/a.cpp:3:7"), std::string::npos);
  EXPECT_NE(hidden.find("1 suppressed"), std::string::npos);
  const std::string shown = ptilu::lint::to_text(report, /*show_suppressed=*/true);
  EXPECT_NE(shown.find("src/a.cpp:3:7: [assert-macro] msg"), std::string::npos);
  EXPECT_NE(shown.find("(suppressed)"), std::string::npos);
}

TEST(LintReport, UnsuppressedCount) {
  std::vector<Finding> findings;
  EXPECT_EQ(ptilu::lint::unsuppressed_count(findings), 0u);
  findings.push_back(Finding{"assert-macro", "f", 1, 1, "m", true});
  findings.push_back(Finding{"assert-macro", "f", 2, 1, "m", false});
  EXPECT_EQ(ptilu::lint::unsuppressed_count(findings), 1u);
}

TEST(LintRules, KnownRule) {
  EXPECT_TRUE(ptilu::lint::known_rule("assert-macro"));
  EXPECT_FALSE(ptilu::lint::known_rule("no-such-rule"));
}

// The repository itself must lint clean (the ptilu_lint_repo ctest entry
// runs the CLI; this is the in-process equivalent so a plain gtest run
// catches regressions too). PTILU_LINT_REPO_ROOT is the source root.
TEST(LintRepo, RepositoryIsCleanOfUnsuppressedFindings) {
  const ptilu::lint::Report report = ptilu::lint::lint_tree(PTILU_LINT_REPO_ROOT);
  ASSERT_FALSE(report.files.empty());
  for (const Finding& f : report.findings) {
    EXPECT_TRUE(f.suppressed) << f.file << ":" << f.line << ": [" << f.rule << "] "
                              << f.message;
  }
}

}  // namespace
