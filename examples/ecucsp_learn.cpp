// ecucsp_learn: active automata learning of the simulated (black-box) ECU.
//
//   $ ./ecucsp_learn                       # learn the faithful ECU, text
//   $ ./ecucsp_learn --json                # machine-readable learn_format:1
//   $ ./ecucsp_learn --mutate 1            # learn a seeded mutant; the
//                                          # requirement battery must FAIL
//
// The tool treats the simulated ECU purely as a membership oracle: words
// over the abstract OTA alphabet are concretised to CAN frames, injected
// through the conformance harness, and the abstracted bus observation
// answers "is this word a trace?". A discrimination-tree learner builds a
// hypothesis automaton, conformance suites over the hypothesis approximate
// equivalence queries, and once the loop converges the Table III security
// requirements R01-R05 are refinement-checked against the *learned* model —
// security checking without any CAPL source on the checking side.
//
// Exit code 0 when learning converged and every requirement check passed,
// 1 when any check failed (or learning did not converge), 2 for usage
// errors. Reports are byte-identical for a fixed --seed at any --jobs
// (timing opt-in via --timing).
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "learn/run.hpp"

using namespace ecucsp;

int main(int argc, char** argv) {
  learn::LearnRunOptions opt;
  bool json = false;
  bool timing = false;
  const cli::Tool tool{
      .synopsis = {"[options]"},
      .about = "Learns a model of the simulated ECU via membership queries "
               "through the conformance harness, then checks R01-R05 "
               "against the learned model.",
      .options =
          {cli::number("--seed", "N",
                       "learning + harness base seed (default 1)", opt.seed),
           cli::number("--jobs", "N",
                       "parallel membership-query workers (0 = all cores)",
                       opt.jobs, 0, cli::kMaxJobs),
           cli::number("--rounds", "N", "max equivalence rounds (default 16)",
                       opt.rounds, 1, 65536),
           cli::number("--eq-tests", "N",
                       "per-round equivalence tests per family (default 64)",
                       opt.eq_tests, 1, 65536),
           cli::number("--max-len", "N",
                       "equivalence word length cap (default 12)",
                       opt.max_len, 1, 65536),
           cli::number("--timeout", "MS",
                       "per-refinement-check wall-clock budget",
                       [&](std::uint64_t ms) {
                         opt.timeout = std::chrono::milliseconds(ms);
                       },
                       1, cli::kMaxTimeoutMs),
           cli::flag("--json",
                     "machine-readable learn_format:1 report on stdout", json),
           cli::flag("--timing", "include wall-clock fields in the JSON report",
                     timing),
           cli::number("--mutate", "SEED",
                       "learn a seeded ECU mutant instead of the faithful "
                       "ECU; the requirement battery must catch it",
                       [&](std::uint64_t seed) { opt.mutate = seed; }),
           cli::value("--cache-dir", "D",
                      "persist learned models; also replays counterexamples "
                      "stored by ecucsp_check as equivalence probes",
                      [&](std::string_view d) { opt.cache_dir = d; })},
  };

  return cli::run(argc, argv, tool, [&] {
    const learn::LearnReport rep = learn::run_ota_learn(opt);
    if (json) {
      std::printf("%s\n", learn::render_json(rep, timing).c_str());
    } else {
      std::fputs(learn::render_text(rep).c_str(), stdout);
    }
    return rep.ok ? 0 : 1;
  });
}
