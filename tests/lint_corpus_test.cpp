// Table-driven corpus test: every lint rule has at least one minimal input
// that triggers it (with the right id, severity and source line) and the
// clean negatives stay silent. The corpus lives in tests/lint_corpus/; each
// positive case is written to produce exactly one diagnostic, so a new
// finding leaking into an unrelated case fails loudly here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "lint/lint.hpp"

namespace ecucsp::lint {
namespace {

std::filesystem::path corpus_dir() { return ECUCSP_LINT_CORPUS_DIR; }

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "missing corpus file " << p;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Build the request the CLI would build for one corpus file: CAPL cases
/// are checked against the shared corpus.dbc, DBC and CSPm cases stand
/// alone.
LintRequest request_for(const std::string& file) {
  const std::filesystem::path path = corpus_dir() / file;
  LintRequest req;
  const std::string ext = path.extension().string();
  if (ext == ".can") {
    req.capl.push_back({file, slurp(path)});
    req.dbc = SourceFile{"corpus.dbc", slurp(corpus_dir() / "corpus.dbc")};
  } else if (ext == ".dbc") {
    req.dbc = SourceFile{file, slurp(path)};
  } else {
    req.cspm.push_back({file, slurp(path)});
  }
  return req;
}

struct CorpusCase {
  const char* file;
  const char* rule;
  int line;  // expected span line; 0 = don't check (file-level E001)
};

const CorpusCase kPositive[] = {
    {"C001_duplicate_handler.can", "C001", 10},
    {"C002_unknown_message.can", "C002", 2},
    {"C003_unknown_signal.can", "C003", 3},
    {"C004_signal_overflow.can", "C004", 3},
    {"C005_byte_index_range.can", "C005", 3},
    {"C006_unreachable_code.can", "C006", 4},
    {"C007_undefined_name.can", "C007", 3},
    {"C008_this_outside_handler.can", "C008", 3},
    {"C009_duplicate_variable.can", "C009", 4},
    {"D001_signal_exceeds_dlc.dbc", "D001", 4},
    {"D002_signal_overlap.dbc", "D002", 5},
    {"D003_duplicate_message_id.dbc", "D003", 6},
    {"D004_duplicate_signal.dbc", "D004", 5},
    {"E001_parse_error.csp", "E001", 0},
    {"S001_undefined_name.csp", "S001", 3},
    {"S002_not_a_channel.csp", "S002", 3},
    {"S003_unused_definition.csp", "S003", 3},
    {"S004_unguarded_recursion.csp", "S004", 3},
    {"S005_vacuous_refinement.csp", "S005", 6},
    {"S006_unused_channel.csp", "S006", 3},
    {"T001_taint_to_bus.can", "T001", 6},
    {"T002_mac_bypass.can", "T002", 5},
    {"T003_stale_freshness.can", "T003", 5},
};

TEST(LintCorpus, EveryPositiveCaseFiresItsRuleAndNothingElse) {
  for (const CorpusCase& c : kPositive) {
    SCOPED_TRACE(c.file);
    const LintReport report = run_lint(request_for(c.file));
    ASSERT_EQ(report.diagnostics.size(), 1u)
        << render_text(report.diagnostics, report.sources);
    const Diagnostic& d = report.diagnostics.front();
    EXPECT_EQ(d.rule, c.rule);
    EXPECT_EQ(d.file, c.file);
    if (c.line > 0) {
      EXPECT_EQ(d.span.line, c.line);
    }
    EXPECT_GE(d.span.column, 1);
    EXPECT_GE(d.span.length, 1);
    // Flow rules must carry a complete source→sink chain; point rules none.
    if (c.rule[0] == 'T') {
      EXPECT_GE(d.chain.size(), 2u) << "flow rule without a source→sink chain";
      for (const ChainStep& step : d.chain) {
        EXPECT_GE(step.span.line, 1);
        EXPECT_FALSE(step.note.empty());
      }
    } else {
      EXPECT_TRUE(d.chain.empty());
    }
    // Severity comes straight from the catalogue.
    const RuleInfo* info = find_rule(d.rule);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(d.severity, info->severity);
    EXPECT_EQ(report.has_errors(), info->severity == Severity::Error);
  }
}

TEST(LintCorpus, CleanNegativesStaySilent) {
  for (const char* file :
       {"clean.can", "clean_taint.can", "corpus.dbc", "clean.csp"}) {
    SCOPED_TRACE(file);
    const LintReport report = run_lint(request_for(file));
    EXPECT_TRUE(report.diagnostics.empty())
        << render_text(report.diagnostics, report.sources);
  }
}

TEST(LintCorpus, CatalogueIsFullyCovered) {
  // A rule added to the catalogue without a corpus case fails here, keeping
  // the corpus honest as the rule set grows.
  std::set<std::string> covered;
  for (const CorpusCase& c : kPositive) covered.insert(c.rule);
  for (const RuleInfo& r : all_rules()) {
    EXPECT_TRUE(covered.count(std::string(r.id)))
        << "rule " << r.id << " has no corpus case";
  }
  EXPECT_EQ(covered.size(), all_rules().size());
}

TEST(LintCorpus, OutOfRangeIntegerLiteralIsOneParseErrorAtTheLiteral) {
  // Both lexers read literals with from_chars: a literal beyond int64 is
  // one E001 at the literal, never an escaped std::out_of_range.
  LintRequest req;
  req.capl.push_back(
      {"big.can", "on start {\n  x = 0x10000000000000000;\n}\n"});
  req.cspm.push_back({"big.csp", "channel c\nN = 99999999999999999999\n"});
  const LintReport report = run_lint(req);
  ASSERT_EQ(report.diagnostics.size(), 2u)
      << render_text(report.diagnostics, report.sources);
  for (const Diagnostic& d : report.diagnostics) {
    SCOPED_TRACE(d.file);
    EXPECT_EQ(d.rule, "E001");
    EXPECT_EQ(d.span.line, 2);
    EXPECT_EQ(d.span.column, d.file == "big.can" ? 7 : 5);
    EXPECT_NE(d.message.find("integer literal out of range"),
              std::string::npos);
  }
}

TEST(LintCorpus, SourcesAreCapturedForRendering) {
  const LintReport report = run_lint(request_for("C004_signal_overflow.can"));
  ASSERT_EQ(report.diagnostics.size(), 1u);
  // Both inputs end up in the source map so the renderer can show carets.
  EXPECT_EQ(report.sources.count("C004_signal_overflow.can"), 1u);
  EXPECT_EQ(report.sources.count("corpus.dbc"), 1u);
  const std::string text =
      render_text(report.diagnostics, report.sources);
  EXPECT_NE(text.find("this.Small = 99;"), std::string::npos);
  EXPECT_NE(text.find("[C004]"), std::string::npos);
}

}  // namespace
}  // namespace ecucsp::lint
