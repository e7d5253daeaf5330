// Workload "replay": offline runtime verification of logged CAN traffic.
//
// Set-up writes seeded candump logs from replay::synthesize_log to files in
// the run's temporary directory: three honest dialogues, one carrying an
// injected Replay attack, and one honest dialogue with a fixed number of
// malformed lines, which drives the ingest diagnostics. Each request is one
// replay::run_replay of one log against R01..R05 plus the CAPL-extracted
// model oracle (specs "all") at jobs 2. The logs are the same length, so
// every request costs about the same: candump scanning, merging and the
// oracle sweep, with no refine or serve work. Before each request the
// process moves to the next pair of CPUs. Set-up (about 2 s, mostly log
// synthesis) runs three times before the measured phase; setup_s is their
// median. It is not repeated inside the phase: synthesis needs more memory
// than a replay and would raise the phase's peak RSS.
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "can/dbc.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "ota/ota.hpp"
#include "replay/log.hpp"
#include "replay/replay.hpp"
#include "replay/sweep.hpp"
#include "replay/synth.hpp"
#include "verify/scheduler.hpp"

namespace perfbench {

using namespace ecucsp;

namespace {

constexpr std::size_t kFrames = 300'000;  // per log
constexpr std::size_t kMalformed = 37;    // malformed lines in one log
constexpr unsigned kJobs = 2;
constexpr std::size_t kNpos = replay::SynthLog::npos;

// Lines the candump parser must reject, one diagnostic each.
constexpr const char* kBadLines[] = {
    "garbage on the bus",
    "(1700000000.000000) can0 12G#00",
    "(not-a-time) can0 123#00",
    "(1700000000.000000) can0 123#0",
    "(1700000000.000000) can0",
};

struct Log {
  std::filesystem::path path;
  const char* kind = "";  // "honest", "attack", "malformed"
  std::size_t events = 0;
  std::size_t injected = kNpos;  // attack: event index of the injected frame
  std::size_t malformed = 0;
};

/// What a replay decided, reduced to the facts the run checks.
struct Verdict {
  bool completed = false;
  std::string error;
  std::size_t events = 0;
  std::size_t diagnostics = 0;
  struct Oracle {
    std::string name;
    bool accepted = true;
    std::size_t first = kNpos;  // first divergence index
  };
  std::vector<Oracle> oracles;
};

std::string insert_malformed(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  for (std::size_t i = 0; i < kMalformed; ++i) {
    const std::size_t at = rng.below(lines.size() + 1);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 kBadLines[i % std::size(kBadLines)]);
  }
  std::string out;
  out.reserve(text.size() + kMalformed * 40);
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

std::vector<Log> write_logs(const std::filesystem::path& dir,
                            const conform::FrameCodec& codec,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Log> logs;
  const auto add = [&](const replay::SynthLog& s, const char* kind,
                       const std::string& text, std::size_t malformed) {
    Log l;
    std::string file = kind;
    file.append("-").append(std::to_string(logs.size())).append(".log");
    l.path = dir / file;
    l.kind = kind;
    l.events = s.events.size();
    l.injected = s.injected_index;
    l.malformed = malformed;
    write_file(l.path, text);
    logs.push_back(std::move(l));
  };
  replay::SynthOptions so;
  so.frames = kFrames;
  for (int i = 0; i < 3; ++i) {
    so.seed = rng.next();
    const replay::SynthLog s = replay::synthesize_log(codec, so);
    add(s, "honest", s.text, 0);
  }
  so.seed = rng.next();
  so.attack = replay::Attack::Replay;
  so.attack_at = kFrames / 4 + rng.below(kFrames / 2);
  const replay::SynthLog attacked = replay::synthesize_log(codec, so);
  add(attacked, "attack", attacked.text, 0);
  so.seed = rng.next();
  so.attack = replay::Attack::None;
  const replay::SynthLog noisy = replay::synthesize_log(codec, so);
  add(noisy, "malformed", insert_malformed(noisy.text, rng), kMalformed);
  return logs;
}

Verdict run_untraced(const Log& log) {
  Verdict v;
  try {
    replay::ReplayOptions ro;
    ro.logs = {log.path};
    ro.specs = {"all"};
    ro.jobs = kJobs;
    const replay::ReplayReport rep = replay::run_replay(ro);
    v.completed = true;
    v.events = rep.events;
    v.diagnostics = rep.diagnostic_count;
    for (const replay::OracleReport& o : rep.oracles) {
      v.oracles.push_back({o.name, o.accepted,
                           o.divergences.empty()
                               ? kNpos
                               : o.divergences.front().event_index});
    }
  } catch (const std::exception& e) {
    v.error = e.what();
  }
  return v;
}

/// run_replay's pipeline split into its public calls, one span each.
Verdict run_traced(const Log& log) {
  Verdict v;
  try {
    const replay::ReplayOptions defaults;
    std::optional<verify::VerifyScheduler> sched;
    {
      const Span s("verify.scheduler");
      verify::SchedulerOptions so;
      so.jobs = kJobs;
      sched.emplace(so);
    }
    std::optional<conform::FrameCodec> codec;
    {
      const Span s("replay.codec");
      codec.emplace(conform::ota_codec(can::parse_dbc(ota::ota_dbc_text())));
    }
    replay::ParsedLog parsed;
    {
      const Span s("replay.scan");
      const replay::MappedFile mf(log.path);
      replay::scan_candump(mf.view(), 0, parsed, &*sched);
    }
    {
      const Span s("replay.merge");
      replay::finalize_merge(parsed);
    }
    replay::DecodedTrace trace;
    {
      const Span s("replay.decode");
      trace = replay::decode_trace(parsed, *codec);
    }
    trace_count("replay.frames", static_cast<double>(parsed.records.size()));
    trace_count("replay.diagnostics",
                static_cast<double>(parsed.diagnostic_count));
    std::vector<conform::TraceOracle> oracles;
    std::vector<replay::CompiledOracle> compiled;
    {
      const Span s("replay.oracle");
      oracles = conform::ota_requirement_oracles();
      oracles.push_back(conform::ota_model_oracle(defaults.max_states));
      for (const conform::TraceOracle& o : oracles) {
        compiled.push_back(replay::compile_for_trace(o, trace.names));
      }
    }
    std::vector<replay::OracleSweep> sweeps;
    {
      const Span s("replay.sweep");
      replay::SweepOptions so;
      so.chunk = defaults.chunk;
      so.max_diverge = defaults.max_diverge;
      sweeps = replay::sweep_trace(compiled, trace.events, so, *sched);
    }
    {
      const Span s("verify.scheduler");
      sched.reset();
    }
    v.completed = true;
    v.events = trace.events.size();
    v.diagnostics = parsed.diagnostic_count;
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      v.oracles.push_back({oracles[i].name, sweeps[i].accepted(),
                           sweeps[i].divergences.empty()
                               ? kNpos
                               : sweeps[i].divergences.front().event_index});
    }
  } catch (const std::exception& e) {
    v.error = e.what();
  }
  return v;
}

std::string check(const Log& log, const Verdict& v) {
  const std::string what = log.path.filename().string();
  if (!v.completed) return what + ": " + v.error;
  if (v.oracles.size() != 6) return what + ": expected six oracles";
  if (v.events != log.events) {
    return what + ": decoded " + std::to_string(v.events) + " events, wrote " +
           std::to_string(log.events);
  }
  if (v.diagnostics != log.malformed) {
    return what + ": " + std::to_string(v.diagnostics) +
           " diagnostics for " + std::to_string(log.malformed) +
           " malformed lines";
  }
  bool r04_caught = false;
  for (const Verdict::Oracle& o : v.oracles) {
    if (std::string_view(log.kind) != "attack") {
      if (!o.accepted) return what + ": honest traffic rejected by " + o.name;
      continue;
    }
    // Every rejection must point at the injected frame; R04 must reject.
    if (!o.accepted && o.first != log.injected) {
      return what + ": " + o.name + " diverges at " + std::to_string(o.first) +
             ", the attack was injected at " + std::to_string(log.injected);
    }
    if (o.name == "R04" && !o.accepted) r04_caught = true;
  }
  if (std::string_view(log.kind) == "attack" && !r04_caught) {
    return what + ": R04 accepted the replayed update report";
  }
  return "";
}

std::string summary(const Verdict& v) {
  std::string s = std::to_string(v.events) + "/" +
                  std::to_string(v.diagnostics);
  for (const Verdict::Oracle& o : v.oracles) {
    s += " " + o.name + (o.accepted ? "+" : "-") +
         (o.first == kNpos ? "" : std::to_string(o.first));
  }
  return s;
}

}  // namespace

RunResult run_replay(const Options& opt, Failures& fail) {
  RunResult out;
  out.tail_cap = 0.9;

  struct Prepared {
    std::unique_ptr<TempDir> dir;
    std::vector<Log> logs;
  };
  const auto prepare = [&opt] {
    Prepared p;
    p.dir = std::make_unique<TempDir>(opt.tmp, "replay");
    const conform::FrameCodec codec =
        conform::ota_codec(can::parse_dbc(ota::ota_dbc_text()));
    p.logs = write_logs(p.dir->path(), codec, opt.seed);
    // Warm-up: replay the attack log once.
    const Log& w = p.logs[3];
    if (const std::string why = check(w, run_untraced(w)); !why.empty()) {
      throw std::runtime_error("warm-up: " + why);
    }
    return p;
  };
  constexpr int kSetups = 3;
  Prepared prep;
  for (int i = 0; i < kSetups; ++i) {
    time_setup(out, [&] {
      prep = Prepared{};
      prep = prepare();
    });
  }
  const std::vector<Log>& logs = prep.logs;

  // A round replays every log once, in a seeded order (about 0.5 s).
  const std::size_t rounds = units_for(opt, 0.5, 20);
  Rng rng(opt.seed ^ 0x5eedull);
  std::vector<std::vector<std::size_t>> order(rounds);
  for (std::vector<std::size_t>& round : order) {
    for (std::size_t i = 0; i < logs.size(); ++i) round.push_back(i);
    rng.shuffle(round);
  }
  std::map<std::string, std::string> verdicts;  // request -> summary
  std::map<std::string, std::string> by_log;    // log -> last summary
  std::uint64_t id = 0;
  {
    CpuRotation rotation(kJobs);
    const MeasuredPhase phase(opt, out);
    for (std::size_t ri = 0; ri < rounds; ++ri) {
      if (phase.elapsed_ns() > time_cap_ns(opt)) {
        out.notes.push_back("time cap reached after " + std::to_string(ri) +
                            " of " + std::to_string(rounds) + " rounds");
        break;
      }
      for (const std::size_t li : order[ri]) {
        const Log& log = logs[li];
        ++id;
        rotation.next();
        const std::int64_t t0 = now_ns();
        Verdict v;
        {
          const RequestScope scope(id);
          v = opt.trace ? run_traced(log) : run_untraced(log);
        }
        const std::string why = check(log, v);
        const std::int64_t t1 = now_ns();
        record_request(id, t0, t1, log.kind);
        ++out.attempted;
        if (!why.empty()) fail.add(why);
        out.add_latency(log.path.filename().string(), t0, t1);
        by_log[log.path.filename().string()] = summary(v);
        verdicts[std::to_string(id) + " " + log.path.filename().string()] =
            summary(v);
      }
    }
  }
  set_verdicts(out, verdicts);
  for (const auto& [name, s] : by_log) out.notes.push_back(name + ": " + s);

  return out;
}

}  // namespace perfbench
