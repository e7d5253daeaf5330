// ecucsp_replay: offline runtime verification of logged CAN traffic.
//
//   $ ./ecucsp_replay fleet.log                       # R01..R05, text report
//   $ ./ecucsp_replay --log a.log --log b.log --json  # merged multi-channel
//   $ ./ecucsp_replay fleet.log --spec R04 --jobs 8 --max-diverge 10
//
// Ingests candump -L logs (mmap'd, tolerant of malformed lines — every bad
// line becomes a diagnostic, never an abort), merges them into one
// timestamp-ordered stream, decodes frames to CSP events through the DBC
// codec, and walks each requirement oracle once over the trace, the oracles
// in parallel. Verdicts and divergence indices are byte-identical at any
// --jobs; the first divergence is reported with the offending frame's
// timestamp, channel, raw bytes and byte offset.
//
// Exit code 0 when every oracle accepts (and, under --strict, the ingest
// was clean), 1 on any violation, 2 for usage errors.
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "replay/replay.hpp"

using namespace ecucsp;

int main(int argc, char** argv) {
  replay::ReplayOptions opt;
  bool json = false;
  const auto add_log = [&](std::string_view f) { opt.logs.emplace_back(f); };
  const cli::Tool tool{
      .synopsis = {"[options] [log...]"},
      .about = "Checks logged CAN traffic (candump -L format) against the OTA "
               "spec oracles offline. Verdicts are independent of --jobs.",
      .options =
          {cli::value("--log", "FILE",
                      "a candump log (repeatable; bare args work too)",
                      add_log),
           cli::value("--dbc", "FILE",
                      "DBC database (default: built-in X.1373 OTA)",
                      [&](std::string_view f) { opt.dbc = f; }),
           cli::value("--spec", "S",
                      "R01..R05 | model | all (repeatable; default R01..R05)",
                      [&](std::string_view s) { opt.specs.emplace_back(s); }),
           cli::number("--jobs", "N",
                       "parallel workers, one oracle each (0 = all cores)",
                       opt.jobs, 0, cli::kMaxJobs),
           cli::number("--max-diverge", "N",
                       "divergences reported per oracle (default 1)",
                       opt.max_diverge, 1),
           cli::number("--max-states", "N",
                       "model-oracle compile budget (default 2^20)",
                       opt.max_states, 1),
           cli::flag("--strict", "ingest diagnostics fail the run",
                     [&] { opt.strict = true; }),
           cli::flag("--lenient",
                     "diagnostics are reported but don't fail (default)",
                     [&] { opt.strict = false; }),
           cli::flag("--json", "deterministic replay_format:1 report on stdout",
                     json)},
      .positional = add_log,
  };

  return cli::run(argc, argv, tool, [&] {
    if (opt.logs.empty()) throw cli::UsageError("no log files given");
    const replay::ReplayReport rep = replay::run_replay(opt);
    if (json) {
      std::fputs(rep.render_json().c_str(), stdout);
    } else {
      std::fputs(rep.render_text().c_str(), stdout);
    }
    return rep.ok() ? 0 : 1;
  });
}
