// Differential property tests pinning the offline replay checker to the
// live TraceOracle semantics: seeded random event traces are rendered to
// synthetic candump logs and replayed offline at every --jobs, for two spec
// sets and two divergence caps. The rendered reports must be byte-identical
// across worker counts, and every oracle's verdict must equal a
// skip-and-continue reference walk written here over TraceOracle::next,
// independently of replay's compiled step tables; the first divergence
// must also equal TraceOracle::judge's. Each oracle is one walk; the worker
// count only picks which thread walks it, and that is invisible in the
// output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "can/dbc.hpp"
#include "conform/generate.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "ota/ota.hpp"
#include "replay/replay.hpp"
#include "replay/synth.hpp"

namespace ecucsp::replay {
namespace {

const std::vector<std::string>& vocab() {
  static const std::vector<std::string> v = {
      "send.SwInventoryReq", "rec.SwReport", "send.UpdApplyReq",
      "send.UpdApplyReqBad", "rec.UpdReport"};
  return v;
}

std::vector<std::string> random_trace(std::uint64_t& rng, std::size_t len) {
  std::vector<std::string> out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(vocab()[conform::splitmix64(rng) % vocab().size()]);
  }
  return out;
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& text) {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("replay-diff-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++) + ".log");
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  ~TempFile() { std::filesystem::remove(path); }
};

/// The reference walk: step each event with TraceOracle::next; on a
/// rejection record the verdict and skip the event, node unchanged. Stops
/// at the first divergence past `cap`, which only marks the walk
/// truncated. Returns the report replay must give for a log with one frame
/// per line (event i comes from line i + 1), in the fields render() reads.
OracleReport skip_walk(const conform::TraceOracle& oracle,
                       const std::vector<std::string>& events,
                       std::size_t cap) {
  OracleReport out;
  out.name = oracle.name;
  std::uint32_t node = oracle.automaton.root;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint32_t to = oracle.next(node, events[i]);
    if (to == conform::TraceOracle::kSkip) continue;
    if (to >= conform::TraceOracle::kRejectStuck) {
      if (out.divergences.size() == cap) {
        out.truncated = true;
        break;
      }
      conform::OracleVerdict v = oracle.rejection(i, events[i], node, to);
      ReplayDivergence d;
      d.event_index = i;
      d.event = std::move(v.event);
      d.offered = std::move(v.offered);
      d.reason = std::move(v.reason);
      d.frame.line = static_cast<std::uint32_t>(i + 1);
      out.divergences.push_back(std::move(d));
      continue;
    }
    node = to;
  }
  out.accepted = out.divergences.empty();
  return out;
}

/// The verdict facts of one oracle, one line each, compared as strings.
std::string render(const OracleReport& o) {
  std::string out = o.name + (o.accepted ? " accepted" : " rejected") +
                    (o.truncated ? " truncated\n" : "\n");
  for (const ReplayDivergence& d : o.divergences) {
    out += std::to_string(d.event_index) + " line " +
           std::to_string(d.frame.line) + " " + d.event + ": " + d.reason +
           "; offered";
    for (const std::string& e : d.offered) out += " " + e;
    out += "\n";
  }
  return out;
}

class ReplayDiffTest : public ::testing::Test {
 protected:
  ReplayDiffTest()
      : db_(can::parse_dbc(ota::ota_dbc_text())),
        codec_(conform::ota_codec(db_)) {}

  ReplayReport replay_file(const std::filesystem::path& log, unsigned jobs,
                           std::size_t max_diverge = 1,
                           std::vector<std::string> specs = {}) {
    ReplayOptions opt;
    opt.logs = {log};
    opt.jobs = jobs;
    opt.max_diverge = max_diverge;
    opt.specs = std::move(specs);
    return run_replay(opt);
  }

  can::DbcDatabase db_;
  conform::FrameCodec codec_;
};

TEST_F(ReplayDiffTest, OfflineVerdictsMatchDirectOracleAtEveryJobsByChunk) {
  // ReplayOptions::chunk is an ignored field kept for source compatibility:
  // across jobs x chunk the report is byte-identical, and its first
  // divergence per oracle is the one TraceOracle::judge finds.
  const std::vector<conform::TraceOracle> oracles =
      conform::ota_requirement_oracles();
  const unsigned jobs_grid[] = {1, 2, 4};
  const std::size_t chunk_grid[] = {16, 4096, 0};

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::uint64_t rng = seed;
    const std::size_t len = 20 + conform::splitmix64(rng) % 300;
    const std::vector<std::string> events = random_trace(rng, len);
    const TempFile log(render_candump(codec_, events, "can0", 1'000'000));

    std::string reference_json;
    for (const unsigned jobs : jobs_grid) {
      for (const std::size_t chunk : chunk_grid) {
        ReplayOptions opt;
        opt.logs = {log.path};
        opt.jobs = jobs;
        opt.chunk = chunk;
        const ReplayReport rep = run_replay(opt);
        SCOPED_TRACE("seed " + std::to_string(seed) + " jobs " +
                     std::to_string(jobs) + " chunk " + std::to_string(chunk));

        const std::string json = rep.render_json();
        if (reference_json.empty()) {
          reference_json = json;
        } else {
          ASSERT_EQ(json, reference_json);
        }

        ASSERT_EQ(rep.events, events.size());
        ASSERT_EQ(rep.oracles.size(), oracles.size());
        for (std::size_t oi = 0; oi < oracles.size(); ++oi) {
          const conform::OracleVerdict want = oracles[oi].judge(events);
          const OracleReport& got = rep.oracles[oi];
          ASSERT_EQ(got.name, oracles[oi].name);
          ASSERT_EQ(got.accepted, want.accepted);
          if (!want.accepted) {
            ASSERT_FALSE(got.divergences.empty());
            EXPECT_EQ(got.divergences[0].event_index, want.divergence_index);
            EXPECT_EQ(got.divergences[0].event, want.event);
            EXPECT_EQ(got.divergences[0].reason, want.reason);
            EXPECT_EQ(got.divergences[0].offered, want.offered);
            // Provenance: the divergent frame is the log line the event
            // came from (one frame per line, one event per frame here).
            EXPECT_EQ(got.divergences[0].frame.line,
                      static_cast<std::uint32_t>(want.divergence_index + 1));
          }
        }
      }
    }
  }
}

TEST_F(ReplayDiffTest, MultiDivergenceMatchesSkipAndContinueReference) {
  std::vector<conform::TraceOracle> all = conform::ota_requirement_oracles();
  all.push_back(conform::ota_model_oracle());
  const std::vector<conform::TraceOracle> r04 = {
      conform::requirement_oracle("R04")};
  struct SpecSet {
    std::string spec;
    const std::vector<conform::TraceOracle>* oracles;
  };
  const SpecSet spec_sets[] = {{"R04", &r04}, {"all", &all}};

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::uint64_t rng = seed;
    const std::size_t len = 20 + conform::splitmix64(rng) % 300;
    const std::vector<std::string> events = random_trace(rng, len);
    const TempFile log(render_candump(codec_, events, "can0", 1'000'000));

    for (const SpecSet& set : spec_sets) {
      for (const std::size_t cap : {1u, 3u}) {
        std::string want;
        for (const conform::TraceOracle& o : *set.oracles) {
          want += render(skip_walk(o, events, cap));
        }
        std::string reference_json;
        for (const unsigned jobs : {1u, 2u, 4u}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " spec " + set.spec +
                       " cap " + std::to_string(cap) + " jobs " +
                       std::to_string(jobs));
          const ReplayReport rep =
              replay_file(log.path, jobs, cap, {set.spec});
          ASSERT_EQ(rep.events, events.size());
          std::string got;
          for (const OracleReport& o : rep.oracles) got += render(o);
          ASSERT_EQ(got, want);

          // The whole rendered report is byte-identical across jobs.
          const std::string json = rep.render_json();
          if (reference_json.empty()) {
            reference_json = json;
          } else {
            ASSERT_EQ(json, reference_json);
          }
        }
      }
    }
  }
}

TEST_F(ReplayDiffTest, SkipAndContinueEnumeratesEveryR04Divergence) {
  // Three spurious UpdReports against R04's counting automaton: the walk
  // reports each one, in order, and a cap below three truncates.
  const std::vector<std::string> events = {
      "rec.UpdReport",                      // 0: nothing outstanding
      "send.UpdApplyReq", "rec.UpdReport",  // 1, 2: a legitimate pair
      "rec.UpdReport",                      // 3: spurious again
      "send.UpdApplyReq", "rec.UpdReport",  // 4, 5: legitimate
      "rec.UpdReport",                      // 6: spurious
  };
  const TempFile log(render_candump(codec_, events, "can0", 1'000'000));
  const auto indices = [](const OracleReport& o) {
    std::vector<std::size_t> out;
    for (const ReplayDivergence& d : o.divergences) {
      out.push_back(d.event_index);
    }
    return out;
  };

  const ReplayReport three = replay_file(log.path, 2, 3, {"R04"});
  ASSERT_EQ(three.oracles.size(), 1u);
  EXPECT_EQ(indices(three.oracles[0]), (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_FALSE(three.oracles[0].truncated);

  const ReplayReport two = replay_file(log.path, 2, 2, {"R04"});
  ASSERT_EQ(two.oracles.size(), 1u);
  EXPECT_EQ(indices(two.oracles[0]), (std::vector<std::size_t>{0, 3}));
  EXPECT_TRUE(two.oracles[0].truncated);
}

TEST_F(ReplayDiffTest, StrictModelOracleMatchesOffline) {
  // One seed through the CAPL-extracted strict model oracle: the offline
  // path must reproduce the live verdict including the strict
  // outside-alphabet semantics.
  const conform::TraceOracle model = conform::ota_model_oracle();
  std::uint64_t rng = 424242;
  const std::vector<std::string> events = random_trace(rng, 60);
  const TempFile log(render_candump(codec_, events, "can0", 1'000'000));

  const conform::OracleVerdict want = model.judge(events);
  std::string reference_json;
  for (const unsigned jobs : {1u, 4u}) {
    const ReplayReport rep = replay_file(log.path, jobs, 1, {"model"});
    const std::string json = rep.render_json();
    if (reference_json.empty()) {
      reference_json = json;
    } else {
      ASSERT_EQ(json, reference_json);
    }
    ASSERT_EQ(rep.oracles.size(), 1u);
    ASSERT_EQ(rep.oracles[0].accepted, want.accepted);
    if (!want.accepted) {
      ASSERT_FALSE(rep.oracles[0].divergences.empty());
      EXPECT_EQ(rep.oracles[0].divergences[0].event_index,
                want.divergence_index);
      EXPECT_EQ(rep.oracles[0].divergences[0].reason, want.reason);
    }
  }
}

TEST_F(ReplayDiffTest, LongSynthTracePinsTheInjectedIndexAtEveryJobs) {
  // A longer attacked log: the verdict, and the injected index, cannot
  // depend on the worker count.
  SynthOptions sopt;
  sopt.seed = 3;
  sopt.frames = 5000;
  sopt.attack = Attack::Masquerade;
  sopt.attack_at = 2500;
  const SynthLog synth = synthesize_log(codec_, sopt);
  const TempFile log(synth.text);

  std::string reference_json;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const ReplayReport rep = replay_file(log.path, jobs);
    const std::string json = rep.render_json();
    if (reference_json.empty()) {
      reference_json = json;
    } else {
      ASSERT_EQ(json, reference_json) << "jobs " << jobs;
    }
    EXPECT_FALSE(rep.ok());
    for (const OracleReport& o : rep.oracles) {
      if (o.name == "R04") {
        ASSERT_FALSE(o.divergences.empty());
        EXPECT_EQ(o.divergences[0].event_index, synth.injected_index);
      }
    }
  }
}

/// FNV-1a (64-bit) of a rendered report, as 16 hex digits.
std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST_F(ReplayDiffTest, LargeSynthReportsArePinnedAtEveryJobs) {
  // 300k-frame honest, replay-attack and masquerade logs: each is several
  // scan chunks, so the parallel scan writes them in place. The digests of
  // their JSON reports (log path replaced by "LOG") were made by the
  // token-then-validate parser and the copy-per-chunk scan that preceded
  // them, and they hold at every worker count.
  struct Case {
    Attack attack;
    const char* digest;
  };
  const Case cases[] = {{Attack::None, "f905d822b74f5e4c"},
                        {Attack::Replay, "cc1b799c86b3447b"},
                        {Attack::Masquerade, "f1f767cd728599d5"}};
  for (const Case& c : cases) {
    SynthOptions sopt;
    sopt.seed = 25;
    sopt.frames = 300'000;
    sopt.attack = c.attack;
    sopt.attack_at = 150'000;
    const TempFile log(synthesize_log(codec_, sopt).text);
    for (const unsigned jobs : {1u, 2u, 4u}) {
      std::string json = replay_file(log.path, jobs, 3, {"all"}).render_json();
      const std::string path = log.path.string();
      for (std::size_t at = json.find(path); at != std::string::npos;
           at = json.find(path, at)) {
        json.replace(at, path.size(), "LOG");
      }
      EXPECT_EQ(fnv1a_hex(json), c.digest)
          << "attack " << static_cast<int>(c.attack) << " jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace ecucsp::replay
