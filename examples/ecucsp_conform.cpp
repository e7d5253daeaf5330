// ecucsp_conform: model-based conformance testing of the simulated ECU.
//
//   $ ./ecucsp_conform                         # full suite, text report
//   $ ./ecucsp_conform --suite cover --json    # coverage tours, JSON report
//   $ ./ecucsp_conform --mutate 3              # seeded ECU fault injection
//
// The tool compiles the CSP model extracted from the reference CAPL ECU
// into a trace oracle, generates abstract test suites from the same
// automaton (seeded random walks, transition-coverage tours, replays of
// counterexamples from live spec checks and the verification store), then
// executes every test against the *simulated* ECU by mapping CSP events to
// CAN frames. Each observed bus trace is judged by the model oracle, the
// composed-system oracle and the Table III requirement oracles; failures
// are mapped back to CAPL handler source spans.
//
// Exit code 0 when every test passes, 1 when any fails (or times out or
// errors), 2 for usage errors. Reports are deterministic for a fixed
// --seed at any --jobs (timing fields aside).
#include <cstdio>
#include <string>

#include "conform/suite.hpp"
#include "core/cli.hpp"

using namespace ecucsp;

int main(int argc, char** argv) {
  conform::ConformOptions opt;
  bool json = false;
  const cli::Tool tool{
      .synopsis = {"[options]"},
      .about = "Generates conformance tests from the OTA CSP models and runs "
               "them against the simulated ECU, judging every run with the "
               "spec oracle.",
      .options =
          {cli::choice("--suite", "S", "test suite to run (default all)",
                       {"random", "cover", "counterexamples", "all"},
                       [&](std::string_view s) { opt.suite = s; }),
           cli::number("--seed", "N", "generation + harness seed (default 1)",
                       opt.seed),
           cli::number("--tests", "N", "random-suite size (default 16)",
                       opt.tests, 0, 65536),
           cli::number("--max-len", "N", "random walk length cap (default 12)",
                       opt.max_len, 1, 65536),
           cli::number("--jobs", "N", "parallel test workers (0 = all cores)",
                       opt.jobs, 0, cli::kMaxJobs),
           cli::number("--timeout", "MS",
                       "per-test wall-clock budget (default 10000)",
                       [&](std::uint64_t ms) {
                         opt.timeout = std::chrono::milliseconds(ms);
                       },
                       1, cli::kMaxTimeoutMs),
           cli::number("--max-states", "N",
                       "oracle compilation state budget (default 2^20)",
                       opt.max_states, 1),
           cli::flag("--json", "machine-readable report on stdout", json),
           cli::number("--mutate", "SEED",
                       "execute a seeded ECU mutant (the spec side stays "
                       "faithful); the suite must catch it",
                       [&](std::uint64_t seed) { opt.mutate_seed = seed; }),
           cli::flag("--inject-alphabet-mismatch",
                     "desynchronise the frame abstraction from the model "
                     "alphabet; the strict model oracle must pin it",
                     opt.inject_alphabet_mismatch),
           cli::value("--cache-dir", "D",
                      "replay counterexamples stored by ecucsp_check",
                      [&](std::string_view d) { opt.cache_dir = d; })},
  };

  return cli::run(argc, argv, tool, [&] {
    const conform::ConformReport rep = conform::run_ota_conformance(opt);
    if (json) {
      std::printf("%s\n", conform::render_json(rep).c_str());
    } else {
      std::fputs(conform::render_text(rep).c_str(), stdout);
    }
    return rep.ok() ? 0 : 1;
  });
}
