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
#include <cstdlib>
#include <cstring>
#include <string>

#include "learn/run.hpp"

using namespace ecucsp;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "Learns a model of the simulated ECU via membership queries through\n"
      "the conformance harness, then checks R01-R05 against the learned\n"
      "model.\n"
      "  --seed N        learning + harness base seed (default 1)\n"
      "  --jobs N        parallel membership-query workers (0 = all cores)\n"
      "  --rounds N      max equivalence rounds (default 16)\n"
      "  --eq-tests N    per-round equivalence tests per family (default 64)\n"
      "  --max-len N     equivalence word length cap (default 12)\n"
      "  --timeout MS    per-refinement-check wall-clock budget\n"
      "  --json          machine-readable learn_format:1 report on stdout\n"
      "  --timing        include wall-clock fields in the JSON report\n"
      "  --mutate SEED   learn a seeded ECU mutant instead of the faithful\n"
      "                  ECU -- the requirement battery must catch it\n"
      "  --cache-dir D   persist learned models; also replays\n"
      "                  counterexamples stored by ecucsp_check as\n"
      "                  equivalence probes\n",
      argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  learn::LearnRunOptions opt;
  bool json = false;
  bool timing = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // Every value option accepts both `--opt V` and `--opt=V`.
    std::string head;
    const char* inline_value = nullptr;
    if (std::strncmp(arg, "--", 2) == 0) {
      if (const char* eq = std::strchr(arg, '=')) {
        head.assign(arg, eq);
        inline_value = eq + 1;
        arg = head.c_str();
      }
    }
    auto value = [&]() -> const char* {
      if (inline_value) return inline_value;
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (std::strcmp(arg, "--seed") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, opt.seed)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return usage(argv[0]);
      opt.jobs = static_cast<unsigned>(n);
    } else if (std::strcmp(arg, "--rounds") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.rounds = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--eq-tests") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.eq_tests = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--max-len") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.max_len = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--timeout") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return usage(argv[0]);
      opt.timeout = std::chrono::milliseconds(n);
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--timing") == 0) {
      timing = true;
    } else if (std::strcmp(arg, "--mutate") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return usage(argv[0]);
      opt.mutate = n;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opt.cache_dir = v;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return usage(argv[0]);
    }
  }

  try {
    const learn::LearnReport rep = learn::run_ota_learn(opt);
    if (json) {
      std::printf("%s\n", learn::render_json(rep, timing).c_str());
    } else {
      std::fputs(learn::render_text(rep).c_str(), stdout);
    }
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecucsp_learn: %s\n", e.what());
    return 2;
  }
}
