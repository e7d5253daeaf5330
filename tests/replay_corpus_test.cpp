// Malformed-log corpus tests: every hostile input in tests/replay_corpus/
// must produce recorded diagnostics — never a crash, never a silent skip —
// with strict and lenient runs differing only in the documented fields,
// and the aggregate JSON report pinned against a checked-in golden.
// Regenerate the golden after an intentional format change with
//   ECUCSP_UPDATE_GOLDEN=1 ctest -R replay_corpus
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "replay/replay.hpp"

namespace ecucsp::replay {
namespace {

std::filesystem::path corpus_dir() { return ECUCSP_REPLAY_CORPUS_DIR; }
std::filesystem::path golden_dir() { return ECUCSP_GOLDEN_DIR; }

ReplayReport replay_file(const std::string& name, bool strict = false,
                         unsigned jobs = 1) {
  ReplayOptions opt;
  opt.logs = {corpus_dir() / name};
  opt.strict = strict;
  opt.jobs = jobs;
  return run_replay(opt);
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

/// Blank out the two fields strict mode is allowed to change.
std::string mask_strictness(const std::string& json) {
  std::string s = replace_all(json, "\"strict\":true", "\"strict\":?");
  s = replace_all(s, "\"strict\":false", "\"strict\":?");
  s = replace_all(s, "\"ok\":true", "\"ok\":?");
  return replace_all(s, "\"ok\":false", "\"ok\":?");
}

struct Expectation {
  const char* file;
  std::size_t errors;    // exact Error diagnostic count
  std::size_t warnings;  // exact Warning diagnostic count
  std::size_t frames;    // records surviving ingestion
};

// The pinned corpus matrix. Counts are exact: a parser change that starts
// silently skipping (or doubly reporting) a malformed line fails here.
const Expectation kCorpus[] = {
    {"truncated.log", 3, 0, 3},
    {"bad_hex.log", 4, 0, 3},
    {"out_of_order.log", 0, 1, 4},
    {"unknown_id.log", 2, 0, 6},  // unknown ids ingest, then fail decode
    {"empty.log", 1, 0, 0},
    {"fd_remote.log", 3, 0, 4},
};

TEST(ReplayCorpus, EveryFileYieldsRecordedDiagnosticsNeverACrash) {
  for (const Expectation& e : kCorpus) {
    SCOPED_TRACE(e.file);
    const ReplayReport rep = replay_file(e.file);
    std::size_t errors = 0, warnings = 0;
    for (const LogDiagnostic& d : rep.diagnostics) {
      (d.severity == DiagSeverity::Error ? errors : warnings)++;
      EXPECT_FALSE(d.message.empty());
    }
    EXPECT_EQ(errors, e.errors) << rep.render_text();
    EXPECT_EQ(warnings, e.warnings) << rep.render_text();
    EXPECT_EQ(rep.diagnostic_count, e.errors + e.warnings);
    EXPECT_EQ(rep.frames, e.frames);
  }
}

TEST(ReplayCorpus, StrictAndLenientDifferOnlyInTheDocumentedFields) {
  for (const Expectation& e : kCorpus) {
    SCOPED_TRACE(e.file);
    const ReplayReport lenient = replay_file(e.file, /*strict=*/false);
    const ReplayReport strict = replay_file(e.file, /*strict=*/true);
    // Diagnostics present => strict fails, lenient doesn't (oracle verdicts
    // permitting); either way the reports agree everywhere else.
    EXPECT_FALSE(strict.ok());
    EXPECT_EQ(mask_strictness(lenient.render_json()),
              mask_strictness(strict.render_json()));
    if (lenient.ok()) {
      EXPECT_NE(lenient.render_json(), strict.render_json());
    }
  }
}

TEST(ReplayCorpus, WorkerCountNeverChangesTheReport) {
  for (const Expectation& e : kCorpus) {
    SCOPED_TRACE(e.file);
    const std::string reference = replay_file(e.file, false, 1).render_json();
    EXPECT_EQ(replay_file(e.file, false, 2).render_json(), reference);
    EXPECT_EQ(replay_file(e.file, false, 4).render_json(), reference);
  }
}

TEST(ReplayCorpus, MiniLogIsCleanAndViolationPinsItsInjectedFrame) {
  const ReplayReport mini = replay_file("mini.log", /*strict=*/true);
  EXPECT_TRUE(mini.ok()) << mini.render_text();
  EXPECT_EQ(mini.frames, 40u);
  EXPECT_EQ(mini.diagnostic_count, 0u);

  // violation.log is mini.log with a spurious UpdReport spliced in as line
  // 21 / event 20 — R04 must point at exactly that frame.
  const ReplayReport bad = replay_file("violation.log");
  EXPECT_FALSE(bad.ok());
  bool pinned = false;
  for (const OracleReport& o : bad.oracles) {
    if (o.name != "R04") continue;
    ASSERT_FALSE(o.divergences.empty());
    EXPECT_EQ(o.divergences[0].event_index, 20u);
    EXPECT_EQ(o.divergences[0].frame.line, 21u);
    EXPECT_EQ(o.divergences[0].event, "rec.UpdReport");
    pinned = true;
  }
  EXPECT_TRUE(pinned);
}

// --- golden ------------------------------------------------------------------

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReplayCorpus, AggregateReportMatchesGolden) {
  // Every corpus file's lenient JSON, in a fixed order, with the absolute
  // corpus directory normalised out so the golden is machine-independent.
  std::string actual;
  std::vector<std::string> files;
  for (const Expectation& e : kCorpus) files.push_back(e.file);
  files.push_back("mini.log");
  files.push_back("violation.log");
  for (const std::string& f : files) {
    actual += "=== " + f + " ===\n";
    actual += replay_file(f).render_json();
  }
  actual = replace_all(actual, corpus_dir().string(), "<corpus>");

  const std::filesystem::path path = golden_dir() / "replay_corpus.json";
  if (std::getenv("ECUCSP_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot update golden " << path;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << "golden " << path << " missing; run with ECUCSP_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, read_file(path))
      << "output drifted from golden replay_corpus.json; if intentional, "
         "regenerate with ECUCSP_UPDATE_GOLDEN=1 and review";
}

}  // namespace
}  // namespace ecucsp::replay
