// Unit tests for candump ingestion and the synthetic log generator: the
// per-line codec's accept/reject matrix, format round-trips, mmap'd file
// reading, parallel-scan line accounting, the multi-file timestamp merge,
// and the ground-truth regression "the injected attack frame is exactly
// the first divergence the replay reports".
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "can/candump.hpp"
#include "can/dbc.hpp"
#include "candump_reference.hpp"
#include "conform/harness.hpp"
#include "core/rng.hpp"
#include "ota/ota.hpp"
#include "replay/log.hpp"
#include "replay/replay.hpp"
#include "replay/synth.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::replay {
namespace {

std::filesystem::path temp_path(const char* stem) {
  static int counter = 0;
  return std::filesystem::temp_directory_path() /
         (std::string(stem) + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++));
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& text, const char* stem = "replay-test") {
    path = temp_path(stem);
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  ~TempFile() { std::filesystem::remove(path); }
};

// --- per-line codec ----------------------------------------------------------

TEST(CandumpLine, ParsesStandardFrame) {
  const auto rec = can::parse_candump_line("(1736455225.123456) can0 123#DEADBEEF");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp_us, 1736455225123456ull);
  EXPECT_EQ(rec->channel, "can0");
  EXPECT_EQ(rec->frame.id, 0x123u);
  EXPECT_FALSE(rec->frame.extended);
  EXPECT_EQ(rec->frame.dlc, 4);
  EXPECT_EQ(rec->frame.byte(0), 0xDE);
  EXPECT_EQ(rec->frame.byte(3), 0xEF);
  EXPECT_EQ(rec->frame.timestamp_us, rec->timestamp_us);
}

TEST(CandumpLine, ParsesExtendedAndEmptyPayload) {
  const auto ext =
      can::parse_candump_line("(1.000001) vcan1 18FF10F3#0102030405060708");
  ASSERT_TRUE(ext.has_value());
  EXPECT_TRUE(ext->frame.extended);
  EXPECT_EQ(ext->frame.id, 0x18FF10F3u);
  EXPECT_EQ(ext->frame.dlc, 8);

  const auto empty = can::parse_candump_line("(2.5) can0 7FF#");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->frame.dlc, 0);
  EXPECT_EQ(empty->timestamp_us, 2'500'000ull);
  EXPECT_FALSE(empty->frame.extended);
}

TEST(CandumpLine, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                   // empty
      "(1.0) can0",                         // missing frame token
      "(1.0)",                              // missing interface
      "1.0 can0 123#00",                    // no parens
      "(abc) can0 123#00",                  // bad timestamp
      "(1.0) can0 123#00 extra",            // trailing content
      "(1.0) can0 ZZZ#00",                  // bad id hex
      "(1.0) can0 123456789#00",            // id too long
      "(1.0) can0 20000000#00",             // beyond 29 bits
      "(1.0) can0 123#0",                   // odd payload hex
      "(1.0) can0 123#0102030405060708AA",  // > 8 bytes
      "(1.0) can0 123#GG",                  // bad payload hex
      "(1.0) can0 123##1AABB",              // CAN FD
      "(1.0) can0 123#R",                   // remote
      "(18446744073709.551616) can0 104#0100000000000000",  // 2^64 us
      "(123456789012345678901234567890.0) can0 123#00",     // 30-digit secs
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(can::parse_candump_line(line, &error).has_value())
        << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << "no error message for: " << line;
  }
  std::string error;
  can::parse_candump_line("(18446744073709.551616) can0 104#00", &error);
  EXPECT_EQ(error, "timestamp out of range");
  // The largest microsecond count that fits in 64 bits is still a timestamp.
  const auto last =
      can::parse_candump_line("(18446744073709.551615) can0 104#0100000000000000");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->timestamp_us, 18446744073709551615ull);
}

TEST(CandumpLine, FormatRoundTrips) {
  can::CanFrame f;
  f.id = 0x103;
  f.dlc = 8;
  f.set_byte(0, 1);
  f.set_byte(7, 0xA4);
  const std::string line = can::format_candump_line(1736455225123456ull, "can0", f);
  EXPECT_EQ(line, "(1736455225.123456) can0 103#01000000000000A4");
  const auto back = can::parse_candump_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->frame, [&] {
    can::CanFrame want = f;
    want.timestamp_us = 1736455225123456ull;
    return want;
  }());
  EXPECT_EQ(back->channel, "can0");

  can::CanFrame ext;
  ext.id = 0x18FF10F3;
  ext.extended = true;
  ext.dlc = 2;
  ext.set_byte(0, 0xAB);
  const std::string eline = can::format_candump_line(5, "vcan0", ext);
  EXPECT_EQ(eline, "(0.000005) vcan0 18FF10F3#AB00");
  EXPECT_TRUE(can::parse_candump_line(eline).has_value());
}

TEST(CandumpLine, OneWalkMatchesReferenceOnSeededMutations) {
  // Seeded edits of lines at the edges of every rule must get the same
  // answer from the one-walk parser as from the token-then-validate
  // reference: the same accept, frame and channel, or the same error text.
  const std::string seeds[] = {
      "",
      "(1.0) can0",
      "(1.0)",
      "1.0 can0 123#00",
      "(abc) can0 123#00",
      "(1.0) can0 123#00 extra",
      "(1.0) can0 ZZZ#00",
      "(1.0) can0 123456789#00",
      "(1.0) can0 20000000#00",
      "(1.0) can0 123#0",
      "(1.0) can0 123#0102030405060708AA",
      "(1.0) can0 123#GG",
      "(1.0) can0 123##1AABB",
      "(1.0) can0 123#R",
      "(123456789012345678901234567890.0) can0 123#00",
      "(18446744073709.551615) can0 104#0100000000000000",
      "(18446744073709.551616) can0 104#00",
      "\t(1736455225.123456)\tvcan1\t18FF10F3#0102030405060708\t",
      "  (2.5)   can0  7FF#  \r",
      "(1.000001) can0\r 123#r\r",
      "(0.000005) vcan0 0000007F#AB00",
      "(1.0) can0 123#0102030405060708A",
      "( can0 1#",
      "() can0 1#",
      "(12)) can0 1#",
      "(1.) can0 1#",
      "(12.5)x can0 1#",
  };
  constexpr std::string_view kAlphabet =
      " \t\r#().0123456789abcdefABCDEFRrGxz";
  std::uint64_t rng = core::seed_state(2026);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(core::splitmix64(rng) % n);
  };
  // Half a million runs must stay fast on the sanitizer builds, so the
  // loop reuses its strings and checks with plain comparisons.
  std::size_t accepted = 0;
  constexpr std::size_t kRuns = 500'000;
  std::string line;
  std::string want_error;
  for (std::size_t run = 0; run < kRuns; ++run) {
    line.assign(seeds[run % std::size(seeds)]);
    for (std::size_t edits = 1 + below(4); edits > 0; --edits) {
      const std::size_t at = below(line.size() + 1);
      const char c = kAlphabet[below(kAlphabet.size())];
      switch (below(3)) {
        case 0:
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        case 1:
          if (at < line.size()) line.erase(at, 1);
          break;
        default:
          if (at < line.size()) line[at] = c;
          break;
      }
    }
    const auto want = can::reference::parse_candump_line(line, &want_error);
    can::CanFrame frame;
    std::string_view channel;
    const char* error = can::parse_candump_line(line, frame, channel);
    accepted += error == nullptr;
    if (want ? error != nullptr || frame != want->frame ||
                   channel != want->channel
             : error == nullptr || want_error != error) {
      FAIL() << "parsers disagree on \"" << line << "\": "
             << (error != nullptr ? error : "accepted") << " vs "
             << (want ? "accepted" : want_error);
    }
  }
  // The edits must reach both sides of the parser, not only its errors.
  EXPECT_GT(accepted, kRuns / 50);
  EXPECT_LT(accepted, kRuns / 2);
}

// --- file ingestion ----------------------------------------------------------

TEST(MappedFile, MapsRegularFilesAndThrowsOnMissing) {
  const TempFile f("hello candump\n");
  const MappedFile mf(f.path);
  EXPECT_EQ(mf.view(), "hello candump\n");
  EXPECT_THROW(MappedFile("/ecucsp/no/such/file.log"), std::runtime_error);
}

TEST(MappedFile, EmptyFileYieldsEmptyView) {
  const TempFile f("");
  const MappedFile mf(f.path);
  EXPECT_TRUE(mf.view().empty());
}

TEST(ScanCandump, RecordsDiagnosticsWithLineAndOffset) {
  const std::string text =
      "(1.000000) can0 100#00\n"
      "garbage line\n"
      "\n"
      "# a comment\n"
      "(1.000500) can0 101#00\n";
  ParsedLog log;
  scan_candump(text, 0, log);
  EXPECT_EQ(log.lines, 5u);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].line, 1u);
  EXPECT_EQ(log.records[1].line, 5u);
  EXPECT_EQ(log.records[1].byte_offset, text.find("(1.000500)"));
  ASSERT_EQ(log.diagnostics.size(), 1u);
  EXPECT_EQ(log.diagnostics[0].line, 2u);
  EXPECT_EQ(log.diagnostics[0].byte_offset, text.find("garbage"));
  EXPECT_EQ(log.diagnostics[0].severity, DiagSeverity::Error);
}

TEST(ScanCandump, ParallelScanMatchesSequential) {
  // Big enough that 4 workers split it into several chunks.
  std::string text;
  for (int i = 0; i < 170000; ++i) {
    text += '(';
    text += std::to_string(100 + i / 1000);
    text += '.';
    text += std::to_string(100000 + i % 1000);
    text += ") can0 100#00\n";
    if (i % 37 == 0) text += "not a frame\n";
  }
  ASSERT_GE(text.size(), 4 * kMinChunkBytes);
  ParsedLog seq;
  scan_candump(text, 0, seq);

  verify::VerifyScheduler sched{{.jobs = 4}};
  ParsedLog par;
  scan_candump(text, 0, par, &sched);

  ASSERT_EQ(par.records.size(), seq.records.size());
  for (std::size_t i = 0; i < seq.records.size(); ++i) {
    EXPECT_EQ(par.records[i].line, seq.records[i].line) << i;
    EXPECT_EQ(par.records[i].byte_offset, seq.records[i].byte_offset) << i;
    EXPECT_EQ(par.records[i].frame, seq.records[i].frame) << i;
  }
  ASSERT_EQ(par.diagnostics.size(), seq.diagnostics.size());
  for (std::size_t i = 0; i < seq.diagnostics.size(); ++i) {
    EXPECT_EQ(par.diagnostics[i].line, seq.diagnostics[i].line) << i;
    EXPECT_EQ(par.diagnostics[i].message, seq.diagnostics[i].message) << i;
  }
  EXPECT_EQ(par.lines, seq.lines);
}

TEST(ScanCandump, SkippedLinesTakeNoRecordSlots) {
  // The record array is sized by the lines that can hold a record, so a log
  // of blank lines costs no memory per line, in one chunk or in several.
  std::string text(1'500'000, '\n');
  text += "# comment\n\r\n(1.0) can0 100#00\n";
  ASSERT_GT(text.size(), kMinChunkBytes);
  verify::VerifyScheduler four{{.jobs = 4}};
  verify::VerifyScheduler* const scheds[] = {&four, nullptr};
  for (verify::VerifyScheduler* const sched : scheds) {
    ParsedLog log;
    scan_candump(text, 0, log, sched);
    EXPECT_EQ(log.lines, 1'500'003u);
    ASSERT_EQ(log.records.size(), 1u);
    EXPECT_EQ(log.records[0].line, 1'500'003u);
    EXPECT_LE(log.records.capacity(), 16u);
  }
}

/// A seeded candump text of at least `min_bytes`: frames on 37 interleaved
/// channels, with malformed, blank, comment and CRLF lines, and no newline
/// after the last line.
std::string mixed_log(std::uint64_t seed, std::size_t min_bytes) {
  static const char* const kNoise[] = {
      "garbage on the bus", "(1.5) can0 12G#00", "(x) can0 123#00",
      "(1.5) can0 123#0",   "(1.5) can0",        "(1.5) can0 123##00",
      "",                   "   ",               "# comment",
      "\t# indented comment", "\r",             " \r",
  };
  std::uint64_t rng = core::seed_state(seed);
  const auto below = [&](std::uint64_t n) { return core::splitmix64(rng) % n; };
  std::string text;
  std::uint64_t us = 1'700'000'000'000'000ull + below(1'000'000);
  while (text.size() < min_bytes) {
    if (below(16) == 0) {
      text += kNoise[below(std::size(kNoise))];
    } else {
      can::CanFrame f;
      f.id = static_cast<can::CanId>(below(0x800));
      f.dlc = static_cast<std::uint8_t>(below(9));
      for (std::size_t i = 0; i < f.dlc; ++i) {
        f.data[i] = static_cast<std::uint8_t>(below(256));
      }
      us = us + 100 - below(120);  // now and then a timestamp regression
      text += can::format_candump_line(
          us, "vcan" + std::to_string(below(37)), f);
      if (below(8) == 0) text += '\r';
    }
    text += '\n';
  }
  text.pop_back();
  return text;
}

TEST(ScanCandump, SplitInvariantInEveryFieldAtScale) {
  // Two large files into one log, scanned on one, two and four workers: the
  // chunks' records move down over skipped lines and their first-seen
  // channel tables are remapped, yet every field of the log must equal a
  // scan on no scheduler at all.
  const std::string texts[] = {mixed_log(1, 5u << 20), mixed_log(2, 5u << 20)};
  const auto scan = [&](verify::VerifyScheduler* sched) {
    ParsedLog log;
    for (std::uint32_t f = 0; f < 2; ++f) scan_candump(texts[f], f, log, sched);
    finalize_merge(log);
    return log;
  };
  const ParsedLog want = scan(nullptr);
  ASSERT_GT(want.records.size(), 250'000u);
  ASSERT_EQ(want.channels.size(), 37u);
  ASSERT_GT(want.diagnostic_count, ParsedLog::kMaxStoredDiagnostics);
  for (const unsigned jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    verify::VerifyScheduler sched{{.jobs = jobs}};
    const ParsedLog got = scan(&sched);
    EXPECT_EQ(got.lines, want.lines);
    EXPECT_EQ(got.channels, want.channels);
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < want.records.size(); ++i) {
      const LogRecord& a = got.records[i];
      const LogRecord& b = want.records[i];
      ASSERT_TRUE(a.frame == b.frame && a.file == b.file && a.line == b.line &&
                  a.channel == b.channel && a.byte_offset == b.byte_offset)
          << "record " << i;
    }
    EXPECT_EQ(got.diagnostic_count, want.diagnostic_count);
    ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size());
    for (std::size_t i = 0; i < want.diagnostics.size(); ++i) {
      const LogDiagnostic& a = got.diagnostics[i];
      const LogDiagnostic& b = want.diagnostics[i];
      ASSERT_TRUE(a.file == b.file && a.line == b.line &&
                  a.byte_offset == b.byte_offset && a.severity == b.severity &&
                  a.message == b.message)
          << "diagnostic " << i;
    }
  }
}

TEST(FinalizeMerge, MergesFilesByTimestampStably) {
  ParsedLog log;
  scan_candump("(2.000000) can0 100#00\n(4.000000) can0 101#00\n", 0, log);
  scan_candump("(1.000000) can1 103#01000000000000A4\n"
               "(2.000000) can1 104#00\n",
               1, log);
  finalize_merge(log);
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records[0].file, 1u);  // t=1
  // Tie at t=2: file 0 scanned first stays first.
  EXPECT_EQ(log.records[1].file, 0u);
  EXPECT_EQ(log.records[2].file, 1u);
  EXPECT_EQ(log.records[3].file, 0u);  // t=4
  ASSERT_EQ(log.channels.size(), 2u);
  EXPECT_EQ(log.channels[log.records[0].channel], "can1");
  EXPECT_EQ(log.diagnostic_count, 0u);
}

TEST(FinalizeMerge, FlagsTimestampRegressionAsWarning) {
  ParsedLog log;
  scan_candump("(2.000000) can0 100#00\n"
               "(1.500000) can0 101#00\n"
               "(3.000000) can0 100#00\n",
               0, log);
  finalize_merge(log);
  ASSERT_EQ(log.diagnostics.size(), 1u);
  EXPECT_EQ(log.diagnostics[0].severity, DiagSeverity::Warning);
  EXPECT_EQ(log.diagnostics[0].line, 2u);
  EXPECT_EQ(log.records.size(), 3u);  // kept, resorted
  EXPECT_EQ(log.records[0].frame.timestamp_us, 1'500'000ull);
}

// --- synthetic logs ----------------------------------------------------------

class SynthTest : public ::testing::Test {
 protected:
  SynthTest()
      : db_(can::parse_dbc(ota::ota_dbc_text())),
        codec_(conform::ota_codec(db_)) {}
  can::DbcDatabase db_;
  conform::FrameCodec codec_;
};

TEST_F(SynthTest, FrameForEventInvertsAbstraction) {
  for (const char* event :
       {"send.SwInventoryReq", "rec.SwReport", "send.UpdApplyReq",
        "send.UpdApplyReqBad", "rec.UpdReport"}) {
    const auto frame = frame_for_event(codec_, event);
    ASSERT_TRUE(frame.has_value()) << event;
    EXPECT_EQ(codec_.abstract_frame(*frame), event);
  }
  EXPECT_FALSE(frame_for_event(codec_, "send.NoSuchMsg").has_value());
  EXPECT_FALSE(frame_for_event(codec_, "rec.UpdApplyReq").has_value())
      << "wrong direction must not concretize";
  EXPECT_FALSE(frame_for_event(codec_, "junk").has_value());
}

TEST_F(SynthTest, HonestLogPassesEveryOracleAndRoundTrips) {
  SynthOptions opt;
  opt.seed = 7;
  opt.frames = 500;
  const SynthLog synth = synthesize_log(codec_, opt);
  EXPECT_GE(synth.frames, opt.frames);
  EXPECT_EQ(synth.injected_index, SynthLog::npos);
  EXPECT_EQ(synth.events.size(), synth.frames);

  // Identical options => identical log (the generator is seeded).
  EXPECT_EQ(synthesize_log(codec_, opt).text, synth.text);

  const TempFile f(synth.text, "synth-honest");
  ReplayOptions ropt;
  ropt.logs = {f.path};
  ropt.strict = true;
  const ReplayReport rep = run_replay(ropt);
  EXPECT_TRUE(rep.ok()) << rep.render_text();
  EXPECT_EQ(rep.frames, synth.frames);
  EXPECT_EQ(rep.events, synth.events.size());
  EXPECT_EQ(rep.diagnostic_count, 0u);
}

TEST_F(SynthTest, InjectedAttackIsTheFirstDivergence) {
  for (const Attack attack : {Attack::Replay, Attack::Masquerade}) {
    SynthOptions opt;
    opt.seed = 11;
    opt.frames = 400;
    opt.attack = attack;
    opt.attack_at = 200;
    const SynthLog synth = synthesize_log(codec_, opt);
    ASSERT_NE(synth.injected_index, SynthLog::npos);
    EXPECT_GE(synth.injected_index, opt.attack_at);
    EXPECT_EQ(synth.events[synth.injected_index], "rec.UpdReport");

    const TempFile f(synth.text, "synth-attack");
    // One worker, then four: the same divergence and the same report bytes.
    std::string reference_json;
    for (const unsigned jobs : {1u, 4u}) {
      ReplayOptions ropt;
      ropt.logs = {f.path};
      ropt.jobs = jobs;
      const ReplayReport rep = run_replay(ropt);
      EXPECT_FALSE(rep.ok());
      bool r04_pinned = false;
      for (const OracleReport& o : rep.oracles) {
        if (o.name != "R04") {
          continue;
        }
        ASSERT_FALSE(o.divergences.empty());
        EXPECT_EQ(o.divergences[0].event_index, synth.injected_index)
            << rep.render_text();
        EXPECT_EQ(o.divergences[0].event, "rec.UpdReport");
        r04_pinned = true;
      }
      EXPECT_TRUE(r04_pinned);
      if (reference_json.empty()) {
        reference_json = rep.render_json();
      } else {
        EXPECT_EQ(rep.render_json(), reference_json) << "jobs " << jobs;
      }
    }
  }
}

TEST_F(SynthTest, RenderCandumpRealisesEveryEvent) {
  const std::vector<std::string> events = {
      "send.SwInventoryReq", "rec.SwReport", "send.UpdApplyReq",
      "rec.UpdReport", "send.UpdApplyReqBad"};
  const std::string text = render_candump(codec_, events, "can0", 1'000'000);
  ParsedLog log;
  scan_candump(text, 0, log);
  finalize_merge(log);
  ASSERT_EQ(log.records.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(codec_.abstract_frame(log.records[i].frame), events[i]);
  }
  EXPECT_THROW(render_candump(codec_, {"rec.Nonsense"}, "can0", 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecucsp::replay
